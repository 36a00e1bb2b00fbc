"""Seeded job streams for the four benchmark workloads.

A stream is a list of rounds and a round is a list of ops.  Every round of a
workload has the same composition: one op per cell below, on the same
supports of the random generators and elements.  The seed draws their
coefficients and the op order within each round (see Draw).  A timed run
executes whole rounds, so its job mix does not depend on how many rounds fit
in its time.

This module does not import cartan_lab: the program only ever sees the job
files written here.  Arrow ids follow the constructors in cartan_lab.groupoid,
which number the units first, so the off-unit arrows of a context with u
units and d arrows are u .. d-1.

Why each workload exists, and the input properties measured on it, are in
perfbench/REPORT.md.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("corpus", "sparse", "dense", "spans")

# the shipped behaviour contract: one op per file, plus one corpus batch
CORPUS_FILES = (
    "01-z6-wt-classify.json", "02-pair3-f3-classify.json",
    "03-groupz2-f3-classify.json", "04-pair3-f2-galois.json",
    "05-z3-f5-pqc-scan.json", "06-z2-f3-pqc-scan.json",
    "07-z3-f5-subalgebra-classify.json", "08-k2xz2-f3-two-arrows.json",
    "09-z3-f5-bad-apple.json", "10-z4-f5-bad-apple.json",
    "11-z5-f5-bad-apple.json", "12-pair2-f3-reconstruct.json",
    "13-pair3-f2-reconstruct.json", "14-groupz2-f3-reconstruct.json",
    "15-z2-f3-bimodule.json", "16-pair3-f5-average.json",
    "17-pair2-q-average.json", "18-z2-f3-obstruct.json",
    "19-klein-bicharacter-f3-validate.json", "20-signflip-f3-validate.json",
)
CORPUS_SRC = Path("src") / "cartan_lab" / "corpus"
BATCH_ID = "corpus-batch"

# rounds per stream; a run cycles through them when it outlasts the stream
ROUNDS = {"corpus": 8, "sparse": 5, "dense": 5, "spans": 16}
# rounds of the fixed op set a traced run repeats, so its counts are exact
TRACE_ROUNDS = {"corpus": 1, "sparse": 1, "dense": 1, "spans": 8}
# seeds whose reports are frozen in golden/ and whose input properties are in
# properties.json; the corpus has one op set for every seed and keeps seed 0
GOLDEN_SEEDS = range(10)

KLEIN = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
K2XZ2_PERMS = [[0, 1], [1, 0], [0, 1], [1, 0]]


def cyclic(n: int):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def pair(n: int) -> dict:
    return {"kind": "pair", "n": n}


def attach(parts, unit: int, order: int) -> dict:
    return {"kind": "attach_isotropy", "unit": unit, "group_table": cyclic(order),
            "base": {"kind": "disjoint_union", "parts": parts}}


def _minus_one(ring: str) -> str:
    return str(int(ring[1:]) - 1)


def klein_twist(ring: str):
    """Bicharacter (a, b) -> (-1)^(a_low * b_high) on the Klein group, whose
    arrow ids are the group elements (as in corpus job 19)."""
    return [{"a": a, "b": b, "value": _minus_one(ring)}
            for a in range(4) for b in range(4) if (a & 1) and (b >> 1) & 1]


def k2xz2_twist(ring: str):
    """The Klein bicharacter pulled back to the action groupoid: the pair
    ((g, h.x), (h, x)) gets sigma(g, h).  Arrow (g, x) has id x for the
    identity and 2 + 2(g - 1) + x otherwise."""
    def aid(g, x):
        return x if g == 0 else 2 + 2 * (g - 1) + x
    out = []
    for g in range(1, 4):
        for h in range(1, 4):
            if (g & 1) and (h >> 1) & 1:
                for x in range(2):
                    out.append({"a": aid(g, K2XZ2_PERMS[h][x]), "b": aid(h, x),
                                "value": _minus_one(ring)})
    return sorted(out, key=lambda e: (e["a"], e["b"]))


@dataclass(frozen=True)
class Space:
    """A context: groupoid build spec, ring, optional cocycle, and the arrow
    layout the generator needs."""

    name: str
    build: dict
    ring: str
    units: int
    arrows: int
    cocycle: list = field(default_factory=list)

    def context(self) -> dict:
        ctx = {"groupoid": {"build": self.build}, "ring": self.ring,
               "label": self.name}
        if self.cocycle:
            ctx["cocycle"] = self.cocycle
        return ctx


K2XZ2 = {"kind": "action", "group_table": KLEIN, "perms": K2XZ2_PERMS,
         "label": "k2xz2"}

# Each scan workload is a list of spaces and a round plan: per space, whether
# the round classifies the full algebra, and how many subalgebra closures of
# a random 1-3-arrow generator it classifies.

# sparse: groupoids with few normalizers, so the batched prefilter rejects
# nearly every candidate.  sign_flip(2) gets no full-algebra cell, since that
# scan alone takes about 6 s, and only three closures: with five units the
# diagonal is large, and 29% of its closures' candidates certify.
SPARSE_SPACES = [
    Space("pair(3)/F2", pair(3), "F2", 3, 9),
    Space("pair(3)/F3", pair(3), "F3", 3, 9),
    Space("sign_flip(1)/F3", {"kind": "sign_flip", "radius": 1}, "F3", 3, 6),
    Space("sign_flip(2)/F3", {"kind": "sign_flip", "radius": 2}, "F3", 5, 10),
    Space("k2xz2/F3", K2XZ2, "F3", 2, 8),
    Space("k2xz2/F3 twisted", K2XZ2, "F3", 2, 8, k2xz2_twist("F3")),
]
SPARSE_PLAN = {
    "pair(3)/F2": (True, 5), "pair(3)/F3": (True, 7), "sign_flip(1)/F3": (True, 5),
    "sign_flip(2)/F3": (False, 3), "k2xz2/F3": (True, 5), "k2xz2/F3 twisted": (True, 5),
}

# dense: group algebras and attached isotropy, where most candidates certify.
# A random generator of Z5 or of Z4 over F7 nearly always closes to the whole
# algebra, which the full cell covers already, so those get no sub cells.
DENSE_SPACES = [
    Space("Z4/F5", {"kind": "cyclic_group", "n": 4}, "F5", 1, 4),
    Space("Z5/F5", {"kind": "cyclic_group", "n": 5}, "F5", 1, 5),
    Space("Z4/F7", {"kind": "cyclic_group", "n": 4}, "F7", 1, 4),
    Space("Z6/F3", {"kind": "cyclic_group", "n": 6}, "F3", 1, 6),
    Space("Klein/F5", {"kind": "group", "table": KLEIN, "label": "klein"}, "F5", 1, 4),
    Space("Klein/F3 twisted", {"kind": "group", "table": KLEIN, "label": "klein"},
          "F3", 1, 4, klein_twist("F3")),
    Space("iso(pair(2)+pair(1),Z3)/F3", attach([pair(2), pair(1)], 2, 3), "F3", 3, 7),
]
DENSE_PLAN = {
    "Z4/F5": (True, 8), "Z5/F5": (True, 0), "Z4/F7": (True, 0), "Z6/F3": (True, 8),
    "Klein/F5": (True, 8), "Klein/F3 twisted": (True, 8),
    "iso(pair(2)+pair(1),Z3)/F3": (True, 4),
}

# spans: larger contexts whose jobs never enumerate normalizers
SPANS_SPACES = [
    (pair(5), "pair(5)", 5, 25, True),
    (pair(6), "pair(6)", 6, 36, True),
    ({"kind": "sign_flip", "radius": 5}, "sign_flip(5)", 11, 22, False),
    (attach([pair(4), pair(1)], 4, 4), "iso(pair(4)+pair(1),Z4)", 5, 20, False),
]
# element support for bimodule and average jobs; see REPORT.md for why
MAX_SUPPORT = 6


@dataclass(frozen=True)
class Op:
    """One call of cli.main: a job file, or the corpus batch over a directory."""

    op_id: str
    command: str
    job: dict | None = None

    def argv(self, jobs: Path) -> list:
        if self.command == "corpus":
            return ["corpus", str(jobs)]
        argv = [self.command, "--context", str(jobs / f"{self.op_id}.json")]
        if self.job.get("expect") is not None:
            argv += ["--expect", self.job["expect"]]
        return argv


class Draw:
    """The two random sources of a stream.  Supports (which arrows a generator
    or element uses, and how many) come from a sequence that restarts every
    round and is the same for every seed, so every round of every seed has the
    same mix of closure sizes; the seed draws the coefficients and the op
    order."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.value = random.Random(f"{workload}:{seed}")
        self.new_round()

    def new_round(self) -> None:
        self.shape = random.Random(f"{self.workload}:shape")

    def coeff(self, ring: str) -> str:
        rng = self.value
        if ring == "Q":
            return f"{rng.choice((-1, 1)) * rng.randint(1, 6)}/{rng.randint(1, 4)}"
        return str(rng.randrange(1, int(ring[1:])))

    def element(self, ring: str, arrows, most: int) -> dict:
        """Random coefficients on a support of 1..most arrows."""
        arrows = list(arrows)
        k = self.shape.randint(1, min(most, len(arrows)))
        chosen = sorted(self.shape.sample(arrows, k))
        return {str(a): self.coeff(ring) for a in chosen}


def _classify(space: Space, subalgebra=None) -> dict:
    ctx = space.context()
    if subalgebra is not None:
        ctx["subalgebra"] = [subalgebra]
    return {"command": "classify", "context": ctx}


def _scan_round(draw: Draw, spaces, plan):
    cells = []
    for s in spaces:
        full, subs = plan[s.name]
        if full:
            cells.append(_classify(s))
        for _ in range(subs):
            cells.append(_classify(s, draw.element(s.ring, range(s.units, s.arrows), 3)))
    return cells


def _spans_round(draw: Draw):
    cells = []
    for build, name, units, arrows, principal in SPANS_SPACES:
        gen = draw.element("Q", range(units, arrows), 3)
        cells.append(_classify(Space(f"{name}/Q", build, "Q", units, arrows), gen))
        commands = [("bimodule", "Q"), ("bimodule", "F7"), ("bimodule", "F101")]
        if principal:
            commands += [("average", "Q"), ("average", "F7")]
        for command, ring in commands:
            ctx = Space(f"{name}/{ring}", build, ring, units, arrows).context()
            ctx["element"] = draw.element(ring, range(arrows), MAX_SUPPORT)
            cells.append({"command": command, "context": ctx})
    return cells


def _cells(workload: str, draw: Draw):
    if workload == "sparse":
        return _scan_round(draw, SPARSE_SPACES, SPARSE_PLAN)
    if workload == "dense":
        return _scan_round(draw, DENSE_SPACES, DENSE_PLAN)
    return _spans_round(draw)


def corpus_jobs(root: Path) -> dict:
    """The shipped corpus job files, by name; a missing one is an error."""
    src = root / CORPUS_SRC
    return {name: json.loads((src / name).read_text(encoding="utf-8"))
            for name in CORPUS_FILES}


def stream(workload: str, seed: int, root: Path) -> list:
    """The rounds of ops for one workload and seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    draw = Draw(workload, seed)
    rounds = []
    if workload == "corpus":
        jobs = corpus_jobs(root)
        for _ in range(ROUNDS[workload]):
            ops = [Op(name[:-5], jobs[name]["command"], jobs[name])
                   for name in CORPUS_FILES]
            ops.append(Op(BATCH_ID, "corpus"))
            draw.value.shuffle(ops)
            rounds.append(ops)
        return rounds
    for r in range(ROUNDS[workload]):
        draw.new_round()
        cells = _cells(workload, draw)
        ops = [Op(f"r{r}-{i:03d}", job["command"], job) for i, job in enumerate(cells)]
        draw.value.shuffle(ops)
        rounds.append(ops)
    return rounds


def dump(job: dict) -> str:
    return json.dumps(job, sort_keys=True, separators=(",", ":")) + "\n"


def write(workload: str, seed: int, root: Path, workdir: Path) -> dict:
    """Write the job files into workdir/jobs and the manifest into workdir,
    replacing what was there; returns the manifest.  On corpus, jobs/ holds
    the 20 shipped files, and the batch runs over it."""
    if workdir.exists():
        shutil.rmtree(workdir)
    jobs = workdir / "jobs"
    jobs.mkdir(parents=True)
    rounds = stream(workload, seed, root)
    for ops in rounds:
        for op in ops:
            if op.job is not None:
                (jobs / f"{op.op_id}.json").write_text(dump(op.job), encoding="utf-8")
    manifest = {
        "workload": workload,
        "seed": seed,
        "trace_rounds": TRACE_ROUNDS[workload],
        "rounds": [[{"id": op.op_id, "argv": op.argv(jobs)} for op in ops]
                   for ops in rounds],
    }
    (workdir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n",
                                           encoding="utf-8")
    return manifest
