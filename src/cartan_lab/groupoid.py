"""Finite groupoids with explicit composition tables.

Arrows carry dense ids in [0, num_arrows).  The first n_units ids are the unit
arrows, and unit u has src = tgt = u.  Composition follows the range/source
convention: a.b is defined iff src(a) = tgt(b), with tgt(a.b) = tgt(a) and
src(a.b) = src(b).
"""

from dataclasses import dataclass, field

import numpy as np

from cartan_lab.errors import GuardExceeded, InputError

MAX_WIDE_NONUNIT_ARROWS = 24
ASSOC_BLOCK = 1 << 16   # entries per block of the associativity check


@dataclass
class Groupoid:
    n_units: int
    src: np.ndarray
    tgt: np.ndarray
    comp: np.ndarray          # comp[a, b] = a.b, or -1 when undefined
    inv: np.ndarray
    label: str = "groupoid"
    build_json: dict | None = field(default=None, repr=False)

    # -- basics --------------------------------------------------------------

    @property
    def num_arrows(self) -> int:
        return len(self.src)

    def units(self) -> range:
        return range(self.n_units)

    def off_units(self) -> range:
        return range(self.n_units, self.num_arrows)

    def is_unit(self, a: int) -> bool:
        return a < self.n_units

    def composable(self, a: int, b: int) -> bool:
        return self.comp[a, b] >= 0

    def composable_pairs(self) -> np.ndarray:
        """The composable pairs (a, b) as rows of a (k, 2) array, row-major."""
        return np.argwhere(self.comp >= 0)

    def arrows_between(self, v: int, w: int):
        """All arrows with tgt v and src w (the set vGw)."""
        return [a for a in range(self.num_arrows)
                if self.tgt[a] == v and self.src[a] == w]

    def iso_arrows(self):
        """Non-unit arrows with equal source and target."""
        return [a for a in self.off_units() if self.src[a] == self.tgt[a]]

    # -- validation ----------------------------------------------------------

    def validate(self):
        """Exhaustive axiom check.  Returns (True, None) or (False, message)
        where the message pins the first violation found, in the order of a
        scan over a, then b, then c.  Each axiom is one array comparison;
        associativity goes by blocks of rows a, so memory stays O(n^2)."""
        n = self.num_arrows
        if self.n_units < 1 or self.n_units > n:
            return False, f"unit count {self.n_units} out of range"
        if self.src.shape != (n,) or self.tgt.shape != (n,):
            return False, "src/tgt shape mismatch"
        if self.comp.shape != (n, n) or self.inv.shape != (n,):
            return False, "comp/inv shape mismatch"
        src, tgt, comp, inv = self.src, self.tgt, self.comp, self.inv
        nu = self.n_units
        ids = np.arange(n)
        bad = (src[:nu] != ids[:nu]) | (tgt[:nu] != ids[:nu])
        if bad.any():
            u = _first(bad)
            return False, f"unit {u} must have src = tgt = {u}"
        bad = (src < 0) | (src >= nu) | (tgt < 0) | (tgt >= nu)
        if bad.any():
            return False, f"arrow {_first(bad)} has src/tgt outside the unit range"
        # each axiom as one mask; the first flagged entry is then named by
        # the tests of the scalar scan, in their order
        defined = src[:, None] == tgt[None, :]
        has = comp >= 0
        c = np.where(has & (comp < n), comp, 0)
        bad = (defined != has) | (has & ((comp >= n) | (tgt[c] != tgt[:, None])
                                         | (src[c] != src[None, :])))
        if bad.any():
            a, b = divmod(_first(bad), n)
            c = comp[a, b]
            if c < 0:
                return False, f"composable pair ({a},{b}) has no product"
            if not defined[a, b]:
                return False, f"non-composable pair ({a},{b}) has a product"
            if c >= n:
                return False, f"product of ({a},{b}) out of range"
            return False, f"product of ({a},{b}) has wrong endpoints"
        left = comp[tgt, ids] != ids
        bad = left | (comp[ids, src] != ids)
        if bad.any():
            a = _first(bad)
            return False, f"{'left' if left[a] else 'right'} unit law fails at arrow {a}"
        inside = (inv >= 0) & (inv < n)
        ic = np.where(inside, inv, 0)
        bad = (~inside | (inv[ic] != ids) | (src[ic] != tgt) | (tgt[ic] != src)
               | (comp[ids, ic] != tgt) | (comp[ic, ids] != src))
        if bad.any():
            a = _first(bad)
            ia = inv[a]
            if not (0 <= ia < n):
                return False, f"inverse of {a} out of range"
            if inv[ia] != a:
                return False, f"inverse not involutive at {a}"
            if src[ia] != tgt[a] or tgt[ia] != src[a]:
                return False, f"inverse of {a} has wrong endpoints"
            if comp[a, ia] != tgt[a]:
                return False, f"a . a^-1 is not the unit at tgt({a})"
            return False, f"a^-1 . a is not the unit at src({a})"
        # associativity, (ab)c against a(bc) over the composable pairs (b, c)
        # in row-major order, for a block of rows a at a time; a block holds
        # at most max(n^2, ASSOC_BLOCK) entries
        bs, cs = np.nonzero(comp >= 0)
        bc = comp[bs, cs]
        step = max(1, ASSOC_BLOCK // len(bs))
        for lo in range(0, n, step):
            ab = comp[lo:lo + step, bs]
            bad = (ab >= 0) & (comp[ab, cs] != comp[lo:lo + step][:, bc])
            if bad.any():
                i, j = divmod(_first(bad), len(bs))
                return False, f"associativity fails on ({lo + i},{bs[j]},{cs[j]})"
        return True, None

    # -- predicates ----------------------------------------------------------

    def is_principal(self) -> bool:
        return len(self.iso_arrows()) == 0

    def iso_sizes(self) -> dict:
        sizes = {u: 1 for u in self.units()}
        for a in self.iso_arrows():
            sizes[int(self.src[a])] += 1
        return sizes

    def is_i2i(self) -> bool:
        """Isolated-two-torsion isotropy: at most one arrow between distinct
        units, and any unit with nontrivial isotropy is isolated with exactly
        two loops."""
        for v in self.units():
            for w in self.units():
                vGw = self.arrows_between(v, w)
                if len(vGw) <= 1:
                    continue
                if v != w:
                    return False
                if len(vGw) != 2:
                    return False
                touching = [a for a in range(self.num_arrows)
                            if self.src[a] == v or self.tgt[a] == v]
                if any(self.src[a] != v or self.tgt[a] != v for a in touching):
                    return False
        return True

    # -- subgroupoids --------------------------------------------------------

    def close_arrow_set(self, seed) -> frozenset:
        """Smallest wide subgroupoid containing the seed arrows."""
        members = set(self.units()) | set(seed)
        frontier = list(members)
        while frontier:
            nxt = []
            for a in list(members):
                ia = int(self.inv[a])
                if ia not in members:
                    members.add(ia)
                    nxt.append(ia)
            snapshot = list(members)
            for a in snapshot:
                for b in snapshot:
                    c = self.comp[a, b]
                    if c >= 0 and int(c) not in members:
                        members.add(int(c))
                        nxt.append(int(c))
            frontier = nxt
        return frozenset(members)

    def is_wide_subgroupoid(self, members: frozenset) -> bool:
        if not set(self.units()) <= members:
            return False
        for a in members:
            if int(self.inv[a]) not in members:
                return False
            for b in members:
                c = self.comp[a, b]
                if c >= 0 and int(c) not in members:
                    return False
        return True

    def wide_subgroupoids(self, max_off_units: int = MAX_WIDE_NONUNIT_ARROWS):
        """All wide subgroupoids, found by growing closures one arrow at a time.

        Every subgroupoid is reachable: from any found H strictly inside a
        target K, adding one arrow of K and closing stays inside K and grows,
        so the walk terminates at K."""
        n_off = self.num_arrows - self.n_units
        if n_off > max_off_units:
            raise GuardExceeded("wide_subgroupoids off-unit arrows", n_off, max_off_units)
        base = self.close_arrow_set([])
        found = {base}
        queue = [base]
        while queue:
            h = queue.pop()
            for a in self.off_units():
                if a in h:
                    continue
                h2 = self.close_arrow_set(h | {a})
                if h2 not in found:
                    found.add(h2)
                    queue.append(h2)
        return sorted(found, key=lambda m: (len(m), sorted(m)))

    def restrict(self, unit_subset):
        """Restriction to an invariant set of units.  Returns (groupoid, arrow_map)
        where arrow_map sends old arrow ids to new ones."""
        x = set(unit_subset)
        for a in range(self.num_arrows):
            if (self.src[a] in x) != (self.tgt[a] in x):
                raise InputError(f"unit set not invariant: arrow {a} crosses the boundary")
        keep = [a for a in range(self.num_arrows) if self.src[a] in x]
        keep.sort(key=lambda a: (0 if self.is_unit(a) else 1, a))
        old_units = [a for a in keep if self.is_unit(a)]
        unit_renum = {u: i for i, u in enumerate(old_units)}
        arrow_map = {a: i for i, a in enumerate(keep)}
        n = len(keep)
        src = np.array([unit_renum[int(self.src[a])] for a in keep], dtype=np.int64)
        tgt = np.array([unit_renum[int(self.tgt[a])] for a in keep], dtype=np.int64)
        comp = -np.ones((n, n), dtype=np.int64)
        for i, a in enumerate(keep):
            for j, b in enumerate(keep):
                c = self.comp[a, b]
                if c >= 0:
                    comp[i, j] = arrow_map[int(c)]
        inv = np.array([arrow_map[int(self.inv[a])] for a in keep], dtype=np.int64)
        sub = Groupoid(len(old_units), src, tgt, comp, inv,
                       label=f"{self.label}|restricted")
        return sub, arrow_map

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        if self.build_json is not None:
            return {"build": self.build_json}
        pairs = self.composable_pairs()
        return {
            "units": self.n_units,
            "arrows": [{"id": a, "src": int(self.src[a]), "tgt": int(self.tgt[a])}
                       for a in range(self.num_arrows)],
            "comp": np.column_stack((pairs, self.comp[pairs[:, 0], pairs[:, 1]])).tolist(),
            "inv": [int(x) for x in self.inv],
        }


def _first(mask: np.ndarray) -> int:
    """Flat index of the first nonzero entry, in row-major order."""
    return int(np.flatnonzero(mask)[0])


def _finalize(g: Groupoid) -> Groupoid:
    ok, msg = g.validate()
    if not ok:
        raise InputError(f"invalid groupoid ({g.label}): {msg}")
    return g


# -- builders ----------------------------------------------------------------

def _group_identity(table) -> int:
    n = len(table)
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            return e
    raise InputError("multiplication table has no identity")


def from_group(table, label: str = "group") -> Groupoid:
    """Group as a one-unit groupoid.  table[g][h] is the product gh."""
    n = len(table)
    if any(len(row) != n for row in table):
        raise InputError("multiplication table is not square")
    e = _group_identity(table)
    order = [e] + [g for g in range(n) if g != e]
    pos = {g: i for i, g in enumerate(order)}
    src = np.zeros(n, dtype=np.int64)
    tgt = np.zeros(n, dtype=np.int64)
    comp = np.zeros((n, n), dtype=np.int64)
    inv = np.zeros(n, dtype=np.int64)
    for a in range(n):
        for b in range(n):
            comp[a, b] = pos[table[order[a]][order[b]]]
    for a in range(n):
        found = [b for b in range(n) if comp[a, b] == 0]
        if len(found) != 1:
            raise InputError("multiplication table is not a group (no unique inverse)")
        inv[a] = found[0]
    g = Groupoid(1, src, tgt, comp, inv, label=label)
    return _finalize(g)


def cyclic_table(n: int):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def pair_groupoid(n: int) -> Groupoid:
    """Full equivalence relation on n points.  Arrow (i, j) goes from j to i;
    the units (u, u) come first, then the pairs i != j in row-major order."""
    if n < 1:
        raise InputError("pair groupoid needs n >= 1")
    ids = np.empty((n, n), dtype=np.int64)
    off = ~np.eye(n, dtype=bool)
    ids[~off] = np.arange(n)
    ids[off] = np.arange(n, n * n)
    tgt, src = np.empty(n * n, dtype=np.int64), np.empty(n * n, dtype=np.int64)
    tgt[ids], src[ids] = np.indices((n, n))
    # (i, j).(j, l) = (i, l); every other pair is not composable
    comp = np.where(src[:, None] == tgt[None, :], ids[tgt[:, None], src[None, :]], -1)
    inv = ids[src, tgt]
    g = Groupoid(n, src, tgt, comp, inv, label=f"pair({n})")
    return _finalize(g)


def from_action(group_table, perms, label: str = "action") -> Groupoid:
    """Action groupoid for a group acting on points by permutations.

    perms[g] is the permutation of the point set given by g; arrows are
    (g, x): x -> perms[g][x]."""
    ng = len(group_table)
    if len(perms) != ng:
        raise InputError("one permutation per group element required")
    npts = len(perms[0])
    e = _group_identity(group_table)
    if perms[e] != list(range(npts)):
        raise InputError("identity must act trivially")
    for g in range(ng):
        for h in range(ng):
            composed = [perms[g][perms[h][x]] for x in range(npts)]
            if composed != perms[group_table[g][h]]:
                raise InputError("permutations do not respect the group table")
    ids = {}
    for x in range(npts):
        ids[(e, x)] = x
    nxt = npts
    for g in range(ng):
        if g == e:
            continue
        for x in range(npts):
            ids[(g, x)] = nxt
            nxt += 1
    total = nxt
    src = np.zeros(total, dtype=np.int64)
    tgt = np.zeros(total, dtype=np.int64)
    for (g, x), a in ids.items():
        src[a] = x
        tgt[a] = perms[g][x]
    comp = -np.ones((total, total), dtype=np.int64)
    for (g, y), a in ids.items():
        for (h, x), b in ids.items():
            if y == perms[h][x]:
                comp[a, b] = ids[(group_table[g][h], x)]
    inv_of = {}
    for g in range(ng):
        gi = next(h for h in range(ng) if group_table[g][h] == e)
        inv_of[g] = gi
    inv = np.zeros(total, dtype=np.int64)
    for (g, x), a in ids.items():
        inv[a] = ids[(inv_of[g], perms[g][x])]
    g_ = Groupoid(npts, src, tgt, comp, inv, label=label)
    return _finalize(g_)


def sign_flip_groupoid(radius: int = 2) -> Groupoid:
    """Z2 acting on {-radius..radius} by negation; point 0 keeps isotropy."""
    npts = 2 * radius + 1
    flip = [npts - 1 - x for x in range(npts)]
    return from_action(cyclic_table(2), [list(range(npts)), flip],
                       label=f"sign_flip({npts})")


def disjoint_union(parts, label: str = "disjoint_union") -> Groupoid:
    if not parts:
        raise InputError("disjoint union needs at least one part")
    total_units = sum(p.n_units for p in parts)
    maps = []
    unit_off = 0
    off_cursor = total_units
    for p in parts:
        m = {}
        for u in p.units():
            m[u] = unit_off + u
        for a in p.off_units():
            m[a] = off_cursor
            off_cursor += 1
        maps.append(m)
        unit_off += p.n_units
    total = off_cursor
    src = np.zeros(total, dtype=np.int64)
    tgt = np.zeros(total, dtype=np.int64)
    comp = -np.ones((total, total), dtype=np.int64)
    inv = np.zeros(total, dtype=np.int64)
    unit_off = 0
    for p, m in zip(parts, maps):
        for a in range(p.num_arrows):
            src[m[a]] = unit_off + int(p.src[a])
            tgt[m[a]] = unit_off + int(p.tgt[a])
            inv[m[a]] = m[int(p.inv[a])]
        for a in range(p.num_arrows):
            for b in range(p.num_arrows):
                c = p.comp[a, b]
                if c >= 0:
                    comp[m[a], m[b]] = m[int(c)]
        unit_off += p.n_units
    g = Groupoid(total_units, src, tgt, comp, inv, label=label)
    return _finalize(g)


def attach_isotropy(base: Groupoid, unit: int, group_table, label=None) -> Groupoid:
    """Adjoin an isotropy group at an isolated unit of the base."""
    if not (0 <= unit < base.n_units):
        raise InputError(f"no unit {unit}")
    touching = [a for a in base.off_units()
                if base.src[a] == unit or base.tgt[a] == unit]
    if touching:
        raise InputError(f"unit {unit} is not isolated; cannot attach isotropy")
    grp = from_group(group_table)
    extra = grp.num_arrows - 1
    total = base.num_arrows + extra
    src = np.zeros(total, dtype=np.int64)
    tgt = np.zeros(total, dtype=np.int64)
    comp = -np.ones((total, total), dtype=np.int64)
    inv = np.zeros(total, dtype=np.int64)
    src[:base.num_arrows] = base.src
    tgt[:base.num_arrows] = base.tgt
    inv[:base.num_arrows] = base.inv
    comp[:base.num_arrows, :base.num_arrows] = base.comp
    # group arrow g (1..extra in grp ids) becomes base.num_arrows + g - 1
    def gid(g):
        return unit if g == 0 else base.num_arrows + g - 1
    for g in range(1, grp.num_arrows):
        a = gid(g)
        src[a] = unit
        tgt[a] = unit
        inv[a] = gid(int(grp.inv[g]))
    for g in range(grp.num_arrows):
        for h in range(grp.num_arrows):
            if g == 0 and h == 0:
                continue
            comp[gid(g), gid(h)] = gid(int(grp.comp[g, h]))
    out = Groupoid(base.n_units, src, tgt, comp, inv,
                   label=label or f"{base.label}+iso@{unit}")
    return _finalize(out)


# -- JSON --------------------------------------------------------------------

def build_from_json(spec: dict) -> Groupoid:
    try:
        kind = spec.get("kind")
        if kind == "pair":
            g = pair_groupoid(int(spec["n"]))
        elif kind == "group":
            g = from_group(spec["table"], label=spec.get("label", "group"))
        elif kind == "cyclic_group":
            g = from_group(cyclic_table(int(spec["n"])), label=f"Z{spec['n']}")
        elif kind == "action":
            g = from_action(spec["group_table"], [list(p) for p in spec["perms"]],
                            label=spec.get("label", "action"))
        elif kind == "sign_flip":
            g = sign_flip_groupoid(int(spec.get("radius", 2)))
        elif kind == "disjoint_union":
            g = disjoint_union([build_from_json(p) for p in spec["parts"]])
        elif kind == "attach_isotropy":
            g = attach_isotropy(build_from_json(spec["base"]), int(spec["unit"]),
                                spec["group_table"])
        else:
            raise InputError(f"unknown build kind {kind!r}")
    except InputError:   # a ValueError too; keep its own message
        raise
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed build spec: {exc!r}") from exc
    g.build_json = dict(spec)
    return g


def from_json(data: dict) -> Groupoid:
    if "build" in data:
        return build_from_json(data["build"])
    try:
        n_units = int(data["units"])
        arrows = data["arrows"]
        n = len(arrows)
        src = np.zeros(n, dtype=np.int64)
        tgt = np.zeros(n, dtype=np.int64)
        seen = set()
        for rec in arrows:
            a = int(rec["id"])
            if a in seen or not (0 <= a < n):
                raise InputError("arrow ids must be dense and unique")
            seen.add(a)
            src[a] = int(rec["src"])
            tgt[a] = int(rec["tgt"])
        comp = -np.ones((n, n), dtype=np.int64)
        for a, b, c in data["comp"]:
            comp[int(a), int(b)] = int(c)
        inv = np.array([int(x) for x in data["inv"]], dtype=np.int64)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed groupoid JSON: {exc}") from exc
    g = Groupoid(n_units, src, tgt, comp, inv, label=data.get("label", "groupoid"))
    return _finalize(g)
