"""Batch front door: JSON contexts in, JSON reports out.

Every command loads a context file, runs one engine entry point, and
prints a deterministic UTF-8 JSON report (sorted keys, no timestamps).
Exit codes: 0 success or expected verdict matched, 1 verdict mismatch,
2 input error, 3 guard exceeded, 4 internal error (a failed self-check: a bug,
not bad input).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import expectation as expmod
from . import inclusions as inclmod
from . import normalizers as normmod
from .errors import GuardExceeded, InputError, InternalCheckError
from .groupoid import json_int
from .steinberg import (Basis, Context, El, algebra_closure, context_from_json,
                        el_from_json)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_MISMATCH = 1
# how a command that stops early is reported: (exception, "error" kind, exit code)
REFUSALS = ((InputError, "input-error", 2), (GuardExceeded, "guard-exceeded", 3),
            (InternalCheckError, "internal-error", 4))


def _jsonable(obj):
    """Coerce report payloads to plain JSON values, deterministically."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (set, frozenset)):
        return sorted(_jsonable(x) for x in obj)
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if hasattr(obj, "to_json"):
        return _jsonable(obj.to_json())
    return str(obj)


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


def _context_of(data: dict) -> Context:
    if not isinstance(data, dict) or "context" not in data:
        raise InputError("context file must be an object with a 'context' entry")
    return context_from_json(data["context"])


def _field_of(data: dict, name: str):
    # optional fields ride inside the context object; top level also accepted
    inner = data.get("context")
    if isinstance(inner, dict) and name in inner:
        return inner[name]
    return data.get(name)


def _element_of(ctx: Context, data: dict, required: bool = True) -> El | None:
    el = _field_of(data, "element")
    if el is None:
        if required:
            raise InputError("this command needs an 'element' entry in the context file")
        return None
    return el_from_json(ctx, el)


def _subalgebra_of(ctx: Context, data: dict) -> Basis | None:
    gens = _field_of(data, "subalgebra")
    if gens is None:
        return None
    if isinstance(gens, dict):
        gens = [gens]
    if not isinstance(gens, list):
        raise InputError("'subalgebra' must be an element or a list of elements")
    els = [el_from_json(ctx, g) for g in gens]
    # generators are closed into an algebra containing the diagonal
    return algebra_closure(ctx, els)


# -- command runners ---------------------------------------------------------
# each returns (payload_dict, verdict_string_or_None)

def _run_validate(ctx: Context, data: dict, opts: dict):
    g = ctx.groupoid   # every groupoid is validated when it is built
    payload = {
        "valid": True,
        "units": g.n_units,
        "arrows": g.num_arrows,
        "principal": g.is_principal(),
        "ring": str(ctx.ring),
        "cocycle": "trivial" if ctx.cocycle.is_trivial() else "table",
        "normalization": "unit",
    }
    return payload, "valid"


def _run_classify(ctx: Context, data: dict, opts: dict):
    c_basis = _subalgebra_of(ctx, data)
    rep = inclmod.classify(ctx, c_basis, guard=opts["guard"])
    return rep.to_json(), rep.verdict


def _run_galois(ctx: Context, data: dict, opts: dict):
    rep = inclmod.galois(ctx, guard=opts["guard"])
    return rep.to_json(), rep.verdict


def _run_reconstruct(ctx: Context, data: dict, opts: dict):
    rep = normmod.phi_check(ctx, guard=opts["guard"])
    verdict = "reconstructed" if rep.get("reconstructed") else "not-reconstructed"
    return rep, verdict


def _run_pqc_scan(ctx: Context, data: dict, opts: dict):
    rep = inclmod.pqc_scan(ctx, guard=opts["guard"])
    return rep, rep["verdict"]


def _run_two_arrows(ctx: Context, data: dict, opts: dict):
    c_basis, proof = inclmod.counterexample_two_arrows(ctx, guard=opts["guard"])
    return proof, proof["classification"].verdict


def _run_bad_apple(ctx: Context, data: dict, opts: dict):
    unit = _field_of(data, "unit")
    if unit is not None:
        unit = json_int(unit, "unit")
    c_basis, proof = inclmod.counterexample_bad_apple(ctx, v=unit, guard=opts["guard"])
    return proof, proof["classification"].verdict


def _run_bimodule(ctx: Context, data: dict, opts: dict):
    c = _element_of(ctx, data)
    rep = inclmod.bimodule_spectral(ctx, c)
    return rep, rep["verdict"]


def _run_average(ctx: Context, data: dict, opts: dict):
    f = _element_of(ctx, data)
    avg, fam = expmod.average_expectation(ctx, f, guard=opts["guard"])
    payload = {
        "input": f,
        "average": avg,
        "restriction": ctx.delta_expectation(f),
        "matches_restriction": avg == ctx.delta_expectation(f),
        "family": fam,
    }
    return payload, "matches-restriction"


def _run_obstruct(ctx: Context, data: dict, opts: dict):
    f = _element_of(ctx, data)
    rep = expmod.averaging_obstruction(ctx, f, seed=opts["seed"], guard=opts["guard"])
    verdict = "obstructed" if rep.get("exhaustive_none_reproduces", True) else "reproduced"
    return rep, verdict


RUNNERS = {
    "validate": _run_validate,
    "classify": _run_classify,
    "galois": _run_galois,
    "reconstruct": _run_reconstruct,
    "pqc-scan": _run_pqc_scan,
    "two-arrows": _run_two_arrows,
    "bad-apple": _run_bad_apple,
    "bimodule": _run_bimodule,
    "average": _run_average,
    "obstruct": _run_obstruct,
}


def _verdict_matches(command: str, expect: str, verdict: str, payload: dict) -> bool:
    if command == "pqc-scan":
        # convenience aliases for the scan outcome
        if expect == "failure":
            return payload.get("failure_count", 0) > 0
        if expect in ("none", "clean"):
            return bool(payload.get("clean"))
    return verdict == expect


def _run_one(command: str, data: dict, opts: dict) -> dict:
    """Run one command against loaded context data; returns the full report."""
    ctx = _context_of(data)
    payload, verdict = RUNNERS[command](ctx, data, opts)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "context_hash": ctx.canonical_hash(),
        "guard": opts["guard"],
        "seed": opts["seed"],
        "verdict": verdict,
        "report": payload,
    }
    if ctx.label:
        report["context_label"] = ctx.label
    expect = opts.get("expect")
    if expect is not None:
        report["expected"] = expect
        report["match"] = _verdict_matches(command, expect, verdict, payload)
    return report


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(_jsonable(report), sort_keys=True, indent=2,
                      ensure_ascii=False) + "\n"
    sys.stdout.write(text)
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")


def _error_report(command: str, exc: Exception) -> tuple[dict, int]:
    """The report of a refused command, and its exit code."""
    kind, code = next((kind, code) for cls, kind, code in REFUSALS if isinstance(exc, cls))
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "error": kind,
        "message": str(exc),
    }
    return report, code


def _job_status(report: dict) -> str:
    if "error" in report:
        return report["error"]
    if report.get("match") is False:
        return "mismatch"
    return "pass"


def _run_corpus(dirpath: str, opts: dict) -> tuple[dict, int]:
    root = Path(dirpath)
    if not root.is_dir():
        raise InputError(f"not a directory: {dirpath}")
    files = sorted(p for p in root.iterdir() if p.suffix == ".json")

    def run_file(path: Path) -> dict:
        job = None
        try:
            job = _load_json(str(path))
            if not isinstance(job, dict):
                raise InputError(f"{path.name} must hold a JSON object")
            command = job.get("command")
            if not isinstance(command, str) or command not in RUNNERS:
                raise InputError(f"unknown command {command!r} in {path.name}")
            job_opts = dict(opts)
            options = job.get("options", {})
            if not isinstance(options, dict):
                raise InputError(f"'options' in {path.name} must be an object")
            for key, opt in (("guard_dim", "guard"), ("seed", "seed")):
                if key in options:
                    job_opts[opt] = json_int(options[key], key)
            job_opts["expect"] = job.get("expect")
            return _run_one(command, job, job_opts)
        except (InputError, GuardExceeded, InternalCheckError) as exc:
            cmd = job.get("command", "?") if isinstance(job, dict) else "?"
            return _error_report(cmd, exc)[0]

    # in order, on this thread: the jobs are CPU-bound Python, which threads
    # under the interpreter lock do not overlap
    reports = [run_file(path) for path in files]
    rows = []
    for path, rep in zip(files, reports):
        rows.append({
            "file": path.name,
            "command": rep.get("command"),
            "status": _job_status(rep),
            "verdict": rep.get("verdict"),
            "expected": rep.get("expected"),
        })
    summary = {
        "schema_version": SCHEMA_VERSION,
        "command": "corpus",
        "jobs": len(files),
        "passed": sum(1 for r in rows if r["status"] == "pass"),
        "table": rows,
        "reports": reports,
    }
    code = EXIT_OK if all(r["status"] == "pass" for r in rows) else EXIT_MISMATCH
    return summary, code


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="cartan-lab",
        description="Exact computations on finite groupoid convolution algebras")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name, help=f"run {name} on a context file")
        p.add_argument("--context", required=True, help="context JSON file")
        p.add_argument("--expect", default=None, help="expected verdict string")
        p.add_argument("--guard-dim", type=int, default=None,
                       help="override the scan guard")
        p.add_argument("--seed", type=int, default=0, help="seed for random trials")
        p.add_argument("--out", default=None, help="also write the report here")
    pc = sub.add_parser("corpus", help="run every job file in a directory")
    pc.add_argument("dir", help="directory of job JSON files")
    pc.add_argument("--guard-dim", type=int, default=None)
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    guard = args.guard_dim if args.guard_dim is not None else inclmod.SCAN_GUARD
    opts = {"guard": guard, "seed": args.seed, "expect": getattr(args, "expect", None)}
    try:
        if args.command == "corpus":
            summary, code = _run_corpus(args.dir, opts)
            _emit(summary, args.out)
            return code
        data = _load_json(args.context)
        report = _run_one(args.command, data, opts)
    except (InputError, GuardExceeded, InternalCheckError) as exc:
        report, code = _error_report(args.command, exc)
        _emit(report, args.out)
        return code
    _emit(report, args.out)
    if report.get("match") is False:
        return EXIT_MISMATCH
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
