"""List the functions of src/cartan_lab/ that no command reaches, and the
layers a traced benchmark run requires that its ops do not call.

    python3 tools/reach.py

Writes seed 0 of every benchmark workload into a temporary directory, with
perfbench/workloads.py (imported, never changed), and runs each op of it
once, the corpus batch included, through cartan_lab.cli.main under
sys.setprofile.  Then it prints every def in src/cartan_lab/ whose code never
ran and that ALLOWED does not name, and every ALLOWED entry that names no
such def: one that no longer exists or that the ops now reach.  It also
prints, per workload, every name in perfbench/traced.py's REQUIRED that the
ops of traced.op_set (the rounds a traced run repeats) never call: a traced
run of that workload would fail on it.  Exits 1 when it prints anything.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cartan_lab"
SEED = 0

# {module.qualified name: why it stays in src/ though no command reaches it}
ALLOWED = {
    "cli._error_report": "the report of a refused command; the workloads hold no refused op",
    "errors.GuardExceeded.__init__": "raised only when a command is refused for size",
    "groupoid._first": "names the first violation when a groupoid fails validation",
    "steinberg.Context.one": "the unit of A, a two-line convenience the tests build elements with",
    "steinberg.Context.basis_deltas": "every delta of A, a convenience the tests iterate over",
    "steinberg.El.__sub__": "f - g, the subtraction the tests write their identities with",
    "steinberg.El.__repr__": "names an element in a failed assertion",
    "coeff.Ring.sub": "ring subtraction behind El.__sub__",
    "groupoid.Groupoid.to_json": "the build-spec encoding that test_json_roundtrip_build_spec checks",
    "steinberg.Context.to_json": "the context encoding that the JSON round-trip tests check",
    "exactlin.solve_frac": "perfbench/tracer.py wraps it by name",
}


def defs(source: str, module: str) -> list:
    """The qualified names, module.qualname, of every def in a module's
    source, nested ones included; lambdas, comprehensions and class bodies
    are not defs."""
    found = []
    todo = [compile(source, module, "exec")]
    while todo:
        for const in todo.pop().co_consts:
            if isinstance(const, types.CodeType):
                todo.append(const)
                if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                    found.append(f"{module}.{const.co_qualname}")
    return found


def verdict(defined, reached, allowed) -> tuple[list, list]:
    """(the defs that never ran and are not allowed, the allowed names that
    are no def that never ran), each sorted."""
    unreached = set(defined) - set(reached)
    return sorted(unreached - set(allowed)), sorted(set(allowed) - unreached)


def reached_names(ops) -> set:
    """module.qualname of every function of the package that the argvs run
    through cli.main entered."""
    sys.path.insert(0, str(PACKAGE.parent))
    from cartan_lab import cli

    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    for argv in ops:
        sys.setprofile(profile)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)
        finally:
            sys.setprofile(None)
    return {f"{Path(c.co_filename).stem}.{c.co_qualname}" for c in codes
            if Path(c.co_filename).resolve().parent == PACKAGE}


def workload_ops(workdir: Path) -> dict:
    """{workload: (required, traced, rest)}: the layers traced.REQUIRED
    names for the workload, and the argv of every op of its seed 0, each op
    once, split into the ops of traced.op_set and the others."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import traced
    import workloads

    out = {}
    for name in workloads.WORKLOADS:
        manifest = workloads.write(name, SEED, ROOT, workdir / name)
        traced_ops = {op["id"]: op["argv"] for ops in traced.op_set(manifest) for op in ops}
        rest = {op["id"]: op["argv"] for ops in manifest["rounds"] for op in ops
                if op["id"] not in traced_ops}
        out[name] = (traced.REQUIRED[name], list(traced_ops.values()), list(rest.values()))
    return out


def uncalled(required, reached) -> list:
    """The required layers that no op called, in their listed order."""
    return [name for name in required if name not in reached]


def main() -> int:
    reached, gaps = set(), []
    with tempfile.TemporaryDirectory() as tmp:
        for workload, (required, traced_ops, rest) in workload_ops(Path(tmp)).items():
            in_op_set = reached_names(traced_ops)
            gaps += [(workload, name) for name in uncalled(required, in_op_set)]
            reached |= in_op_set | reached_names(rest)
    defined = [name for path in sorted(PACKAGE.glob("*.py"))
               for name in defs(path.read_text(encoding="utf-8"), path.stem)]
    unreached, stale = verdict(defined, reached, ALLOWED)
    for name in unreached:
        print(f"unreached: {name}")
    for name in stale:
        print(f"allowed, but not an unreached def: {name}")
    for workload, name in gaps:
        print(f"required by the traced {workload} run, never called: {name}")
    return 1 if unreached or stale or gaps else 0


if __name__ == "__main__":
    sys.exit(main())
