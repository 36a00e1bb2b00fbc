"""Discrete twists: normalized 2-cocycles with values in the units of the ring.
"""

from dataclasses import dataclass, field

import numpy as np

from cartan_lab.coeff import Ring
from cartan_lab.errors import InputError
from cartan_lab.groupoid import Groupoid, json_int


@dataclass
class Cocycle:
    groupoid: Groupoid
    ring: Ring
    table: dict = field(default_factory=dict)   # (a, b) -> unit value; missing means 1

    def omega(self, a: int, b: int):
        if not self.groupoid.composable(a, b):
            raise InputError(f"omega asked on non-composable pair ({a},{b})")
        return self.table.get((a, b), self.ring.one)

    def is_trivial(self) -> bool:
        return all(v == self.ring.one for v in self.table.values())

    def validate(self):
        """Normalization and the cocycle identity, on every composable pair
        and triple.  Returns (True, None) or (False, first-violation message),
        the first violation in the order (a, then b, then z) of a full scan.

        Off the support S of the table (the pairs with omega != 1) every
        value is 1, so only pairs and triples that meet S can fail:
        omega(tgt a, a) != 1 needs (tgt a, a) in S, omega(a, src a) != 1
        needs (a, src a) in S, omega(a, a^-1) != omega(a^-1, a) needs one
        of the two pairs in S, and the identity
        omega(a,b) omega(ab,z) = omega(a,bz) omega(b,z) has 1 on both sides
        unless one of (a,b), (ab,z), (a,bz), (b,z) is in S.  The check
        visits exactly those, O(|S| n) triples, so it is as complete as the
        full scan, and with an empty support it does no per-triple work."""
        g = self.groupoid
        r = self.ring
        for (a, b), v in self.table.items():
            if not g.composable(a, b):
                return False, f"table entry on non-composable pair ({a},{b})"
            if r.try_inv(v) is None:
                return False, f"omega({a},{b}) = {v} is not a unit"
        support = [ab for ab, v in self.table.items() if v != r.one]
        if not support:
            return True, None
        # (arrow, 0) flags omega(tgt a, a) != 1, (arrow, 1) omega(a, src a) != 1
        unnormal = ([(b, 0) for a, b in support if a == g.tgt[b]]
                    + [(a, 1) for a, b in support if b == g.src[a]])
        if unnormal:
            a, side = min(unnormal)
            if side == 0:
                return False, f"normalization fails: omega(tgt,{a}) != 1"
            return False, f"normalization fails: omega({a},src) != 1"
        for a, b, z in _triples_meeting(g, support):
            ab, bz = int(g.comp[a, b]), int(g.comp[b, z])
            lhs = r.mul(self.omega(a, b), self.omega(ab, z))
            rhs = r.mul(self.omega(a, bz), self.omega(b, z))
            if lhs != rhs:
                return False, f"cocycle identity fails on ({a},{b},{z})"
        for a in sorted({x for a, b in support if b == g.inv[a] for x in (a, b)}):
            ia = int(g.inv[a])
            if self.omega(a, ia) != self.omega(ia, a):
                return False, f"omega({a},{a}^-1) != omega({a}^-1,{a})"
        return True, None

    def to_json(self):
        return [{"a": a, "b": b, "value": self.ring.coeff_str(v)}
                for (a, b), v in sorted(self.table.items())]


def _triples_meeting(g: Groupoid, pairs) -> list:
    """The composable triples (a, b, z), distinct and sorted, where one of
    (a,b), (ab,z), (a,bz), (b,z) is among the given composable pairs."""
    comp = g.comp
    composable = np.argwhere(comp >= 0)
    product = comp[composable[:, 0], composable[:, 1]]
    order = np.argsort(product, kind="stable")
    # factorization index: the pairs with product c are by_product[lo[c]:lo[c+1]]
    by_product = composable[order]
    lo = np.searchsorted(product[order], np.arange(g.num_arrows + 1))
    blocks = []
    for x, y in pairs:
        zs = np.nonzero(comp[y] >= 0)[0]           # (a,b) = (x,y)
        blocks.append(np.column_stack([np.full_like(zs, x), np.full_like(zs, y), zs]))
        as_ = np.nonzero(comp[:, x] >= 0)[0]       # (b,z) = (x,y)
        blocks.append(np.column_stack([as_, np.full_like(as_, x), np.full_like(as_, y)]))
        ab = by_product[lo[x]:lo[x + 1]]            # (ab,z) = (x,y)
        blocks.append(np.column_stack([ab, np.full(len(ab), y)]))
        bz = by_product[lo[y]:lo[y + 1]]            # (a,bz) = (x,y)
        blocks.append(np.column_stack([np.full(len(bz), x), bz]))
    return [tuple(t) for t in np.unique(np.concatenate(blocks), axis=0).tolist()]


def trivial_cocycle(g: Groupoid, r: Ring) -> Cocycle:
    return Cocycle(g, r, {})


def cocycle_from_json(g: Groupoid, r: Ring, entries) -> Cocycle:
    """Parse a cocycle table; Context validates it when it is built."""
    table = {}
    n = g.num_arrows
    try:
        for rec in entries or []:
            a, b = json_int(rec["a"], "a"), json_int(rec["b"], "b")
            if not (0 <= a < n and 0 <= b < n):
                raise InputError(f"cocycle entry ({a},{b}) names an arrow outside 0..{n - 1}")
            v = r.coeff_from_str(str(rec["value"]))
            if v != r.one:
                table[(a, b)] = v
    except InputError:   # a ValueError too; keep its own message
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed cocycle entry: {exc!r}") from exc
    return Cocycle(g, r, table)
