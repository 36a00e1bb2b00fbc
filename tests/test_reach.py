"""tools/reach.py: its pure part on a made-up module, then the tool on src/."""

import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from reach import ALLOWED, defs, uncalled, verdict  # noqa: E402

MODULE = '''
class Shape:
    size = [n * n for n in range(3)]

    def area(self):
        return sum(x for x in self.size)

    @property
    def twice(self):
        def double(v):
            return 2 * v
        return double(self.area())


def build(kind):
    return (lambda: Shape())()
'''


def test_defs_are_the_functions_with_their_qualified_names():
    assert sorted(defs(MODULE, "shapes")) == [
        "shapes.Shape.area", "shapes.Shape.twice", "shapes.Shape.twice.<locals>.double",
        "shapes.build"]


def test_verdict_splits_unreached_defs_from_stale_allowances():
    defined = defs(MODULE, "shapes")
    reached = {"shapes.build", "shapes.Shape.area", "shapes.gone"}
    allowed = {"shapes.Shape.twice": "refusal only", "shapes.build": "reached after all",
               "shapes.removed": "no such def"}
    assert verdict(defined, reached, allowed) == (
        ["shapes.Shape.twice.<locals>.double"], ["shapes.build", "shapes.removed"])
    assert verdict(defined, set(defined), {}) == ([], [])


def test_uncalled_lists_the_required_layers_no_op_called():
    required = ("cli.main", "steinberg.intersect_spans", "exactlin.rref_frac")
    assert uncalled(required, {"cli.main", "exactlin.rref_frac", "other"}) == [
        "steinberg.intersect_spans"]
    assert uncalled(required, set(required)) == []


def test_every_allowance_gives_a_reason():
    assert ALLOWED
    assert all(name.count(".") >= 1 and reason.strip() for name, reason in ALLOWED.items())


def test_every_def_in_src_is_reached_or_allowed():
    # and every layer a traced benchmark run requires is called by its op set
    tool = Path(__file__).resolve().parents[1] / "tools" / "reach.py"
    proc = subprocess.run([sys.executable, str(tool)], capture_output=True, text=True,
                          timeout=300)
    assert (proc.returncode, proc.stdout) == (0, "")
