"""Convolution algebras of finite groupoids with a discrete twist.

A Context bundles groupoid + ring + cocycle.  Sparse convolution
(Context.convolve) multiplies the supports of its two factors pair by pair
through the composition table, taking omega(a, b) from the cocycle table (1
where the pair is missing).  The dense path precomputes the composable pairs
(a, b), their products and omega(a, b) once, so that conv_vec is a single
scatter-add over them; prime-field contexts also expose batched versions used
by the normalizer scan.

Elements are sparse dicts {arrow: coefficient} with zeros purged, so
structural equality is mathematical equality.  Dense vectors and the exact
solves behind them are the one place that knows how coefficients are
stored: numpy int64 residues over F_p, object arrays of Fraction over Q.
Spans (Basis) and subalgebra closures share one dict kernel for Q and F_p.
"""

import bisect
import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from cartan_lab import coeff as coeffmod
from cartan_lab import exactlin
from cartan_lab import groupoid as gpd
from cartan_lab import twist as twistmod
from cartan_lab.coeff import Ring, parse_ring
from cartan_lab.errors import InputError, InternalCheckError


class Context:
    """A groupoid, a coefficient ring, and a validated twist."""

    def __init__(self, groupoid: gpd.Groupoid, ring: Ring,
                 cocycle: twistmod.Cocycle | None = None, label: str | None = None):
        self.groupoid = groupoid
        self.ring = ring
        self.cocycle = cocycle or twistmod.trivial_cocycle(groupoid, ring)
        if self.cocycle.groupoid is not groupoid:
            raise InputError("cocycle built on a different groupoid")
        ok, msg = self.cocycle.validate()
        if not ok:
            raise InputError(f"invalid cocycle: {msg}")
        self.label = label or f"{groupoid.label}/{ring}"
        self.dim = groupoid.num_arrows
        self.n_units = groupoid.n_units
        self.is_fp = ring.kind == coeffmod.PRIME_FIELD
        self._dtype = np.int64 if self.is_fp else object
        if self.is_fp:
            self.p = ring.modulus
        self._A, self._B = groupoid.composable_pairs().T.copy()
        self._C = groupoid.comp[self._A, self._B]
        # omega is 1 off the table; scatter the table onto the pair order
        self._W = np.full(len(self._C), ring.one, dtype=self._dtype)
        if self.cocycle.table:
            keys = self._A * self.dim + self._B   # ascending: pairs are row-major
            at = np.searchsorted(keys, [a * self.dim + b for a, b in self.cocycle.table])
            self._W[at] = list(self.cocycle.table.values())

    # -- element constructors ------------------------------------------------

    def element(self, coeffs: dict) -> "El":
        return El(self, coeffs)

    def zero(self) -> "El":
        return El(self, {})

    def delta(self, arrow: int, value=None) -> "El":
        v = self.ring.one if value is None else value
        return El(self, {int(arrow): v})

    def indicator(self, arrows, value=None) -> "El":
        v = self.ring.one if value is None else value
        return El(self, {int(a): v for a in arrows})

    def unit_deltas(self):
        return [self.delta(u) for u in self.groupoid.units()]

    def one(self) -> "El":
        return self.indicator(self.groupoid.units())

    def basis_deltas(self):
        return [self.delta(a) for a in range(self.dim)]

    # -- dense vectors and exact solves (the coefficient backend) -------------

    def vec(self, el: "El") -> np.ndarray:
        v = np.zeros(self.dim, dtype=self._dtype)
        for a, c in el.coeffs.items():
            v[a] = c
        return v

    def el_of_vec(self, v) -> "El":
        return El(self, {int(a): v[a] for a in np.nonzero(v)[0]})

    def conv_vec(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        out = np.zeros(self.dim, dtype=self._dtype)
        if self.is_fp:
            # reduce after each product: int64 holds (p-1)^2, not (p-1)^3
            prod = self._W * f[self._A] % self.p * g[self._B] % self.p
        else:
            prod = self._W * f[self._A] * g[self._B]
        np.add.at(out, self._C, prod)
        return out % self.p if self.is_fp else out

    def solve(self, mat, rhs):
        """One solution x of mat x = rhs (free variables 0), or None."""
        if self.is_fp:
            return exactlin.solve_mod_p(mat, rhs, self.p)
        return exactlin.solve_frac(mat, rhs)

    def nullspace(self, mat):
        """Basis of the right nullspace of mat, one vector per entry."""
        if self.is_fp:
            return exactlin.nullspace_mod_p(mat, self.p)
        return exactlin.nullspace_frac(mat)

    def combination(self, coeffs, rows) -> "El":
        """sum_j coeffs[j] rows[j]; extra coefficients are ignored."""
        out = self.zero()
        for c, row in zip(coeffs, rows):
            if c:
                out = out + row.scale(c)
        return out

    def conv_batch(self, F: np.ndarray, G: np.ndarray) -> np.ndarray:
        """Row-wise convolution of two (B, dim) batches."""
        nb = F.shape[0]
        out = np.zeros((nb, self.dim), dtype=np.int64)
        prod = (self._W[None, :] * F[:, self._A] % self.p) * G[:, self._B] % self.p
        np.add.at(out, (np.arange(nb)[:, None], self._C[None, :]), prod)
        return out % self.p

    def conv_batch_single(self, F: np.ndarray, g: np.ndarray) -> np.ndarray:
        nb = F.shape[0]
        out = np.zeros((nb, self.dim), dtype=np.int64)
        prod = F[:, self._A] * (self._W * g[self._B] % self.p)[None, :] % self.p
        np.add.at(out, (np.arange(nb)[:, None], self._C[None, :]), prod)
        return out % self.p

    def conv_single_batch(self, f: np.ndarray, G: np.ndarray) -> np.ndarray:
        nb = G.shape[0]
        out = np.zeros((nb, self.dim), dtype=np.int64)
        prod = (self._W * f[self._A] % self.p)[None, :] * G[:, self._B] % self.p
        np.add.at(out, (np.arange(nb)[:, None], self._C[None, :]), prod)
        return out % self.p

    # -- core operations -----------------------------------------------------

    def convolve(self, f: "El", g: "El") -> "El":
        omega = self.cocycle.table
        out = {}
        comp = self.groupoid.comp
        for a, fa in f.coeffs.items():
            row = comp[a]
            for b, gb in g.coeffs.items():
                c = row[b]
                if c < 0:
                    continue
                v = fa * gb
                if omega:
                    v *= omega.get((a, b), 1)
                c = int(c)
                out[c] = out.get(c, 0) + v
        return El(self, out)   # reduces the sums to canonical values

    def delta_expectation(self, f: "El") -> "El":
        return El(self, {a: v for a, v in f.coeffs.items()
                         if self.groupoid.is_unit(a)})

    def off_unit_part(self, f: "El") -> "El":
        return El(self, {a: v for a, v in f.coeffs.items()
                         if not self.groupoid.is_unit(a)})

    def random_element(self, rng, support=None) -> "El":
        arrows = range(self.dim) if support is None else support
        r = self.ring
        out = {}
        for a in arrows:
            if r.kind == coeffmod.RATIONALS:
                v = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            else:
                v = r.normalize(rng.randrange(r.modulus))
            if v != r.zero:
                out[int(a)] = v
        return El(self, out)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        out = {"groupoid": self.groupoid.to_json(), "ring": str(self.ring)}
        cj = self.cocycle.to_json()
        out["cocycle"] = cj if cj else None
        if self.label:
            out["label"] = self.label
        return out

    def canonical_hash(self) -> str:
        g = self.groupoid
        payload = {
            "units": g.n_units,
            "src": [int(x) for x in g.src],
            "tgt": [int(x) for x in g.tgt],
            "comp": np.column_stack((self._A, self._B, self._C)).tolist(),
            "inv": [int(x) for x in g.inv],
            "ring": str(self.ring),
            "cocycle": self.cocycle.to_json(),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def context_from_json(data: dict) -> Context:
    try:
        g = gpd.from_json(data["groupoid"])
        ring = parse_ring(data["ring"])
    except KeyError as exc:
        raise InputError(f"context JSON missing {exc}") from exc
    entries = data.get("cocycle")
    coc = twistmod.cocycle_from_json(g, ring, entries) if entries else None
    return Context(g, ring, coc, label=data.get("label"))


@dataclass(frozen=True)
class El:
    """Sparse algebra element; coefficients are canonical and zero-purged."""

    ctx: Context
    coeffs: dict

    def __post_init__(self):
        r = self.ctx.ring
        clean = {}
        for a, v in self.coeffs.items():
            v = r.normalize(v)
            if v:
                clean[int(a)] = v
        object.__setattr__(self, "coeffs", clean)

    def value(self, arrow: int):
        v = self.coeffs.get(int(arrow))
        return self.ctx.ring.zero if v is None else v

    def support(self) -> frozenset:
        return frozenset(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "El") -> "El":
        r = self.ctx.ring
        out = dict(self.coeffs)
        for a, v in other.coeffs.items():
            out[a] = r.add(out.get(a, r.zero), v)
        return El(self.ctx, out)

    def __sub__(self, other: "El") -> "El":
        r = self.ctx.ring
        out = dict(self.coeffs)
        for a, v in other.coeffs.items():
            out[a] = r.sub(out.get(a, r.zero), v)
        return El(self.ctx, out)

    def scale(self, lam) -> "El":
        r = self.ctx.ring
        return El(self.ctx, {a: r.mul(lam, v) for a, v in self.coeffs.items()})

    def __mul__(self, other: "El") -> "El":
        return self.ctx.convolve(self, other)

    def __eq__(self, other) -> bool:
        return isinstance(other, El) and self.ctx is other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def key(self):
        """Canonical sortable form."""
        return tuple(sorted((a, str(v)) for a, v in self.coeffs.items()))

    def to_json(self) -> dict:
        r = self.ctx.ring
        return {str(a): r.coeff_str(v) for a, v in sorted(self.coeffs.items())}

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{v}@{a}" for a, v in sorted(self.coeffs.items()))


def el_from_json(ctx: Context, data: dict) -> El:
    out = {}
    for k, v in data.items():
        a = int(k)
        if not (0 <= a < ctx.dim):
            raise InputError(f"arrow id {a} out of range")
        out[a] = ctx.ring.coeff_from_str(str(v))
    return El(ctx, out)


def _subtract_multiple(cur: dict, c, row: dict, p) -> None:
    """cur -= c * row in place, for canonical field values (p None over Q).
    Canonical values are zero exactly when falsy, and a sum can only vanish
    at an arrow cur already holds, so zeros are purged as they appear."""
    for a, v in row.items():
        x = cur.get(a, 0) - c * v
        if p:
            x %= p
        if x:
            cur[a] = x
        else:
            del cur[a]


class Basis:
    """Reduced row echelon basis of a subspace of A, ordered by pivot arrow.

    Field coefficients only.  rows[i] has coefficient 1 at its pivot arrow
    pivots[i] and 0 at every other pivot, and pivots strictly increase.  The
    reduced echelon basis of a span is unique, so key() identifies the span,
    whatever order its vectors arrived in.

    One kernel serves Q and F_p: reduce, contains and extend eliminate on a
    single coefficient dict in place, in the ring's canonical values
    (Fraction, or a residue in [0, p)).
    """

    def __init__(self, ctx: Context):
        if not ctx.ring.is_field:
            raise InputError("span computations need a field")
        self.ctx = ctx
        self.rows: list[El] = []
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _residue(self, coeffs: dict) -> dict:
        """coeffs minus its component in the span, as a new dict.  The rows
        vanish at each other's pivots, so one subtraction per pivot clears it,
        in any order."""
        p = self.ctx.ring.modulus
        cur = dict(coeffs)
        for piv, row in zip(self.pivots, self.rows):
            c = cur.get(piv)
            if c:
                _subtract_multiple(cur, c, row.coeffs, p)
        return cur

    def reduce(self, el: El) -> El:
        return El(self.ctx, self._residue(el.coeffs))

    def contains(self, el: El) -> bool:
        return not self._residue(el.coeffs)

    def extend(self, el: El) -> bool:
        """Add el to the span; returns True when the dimension grew."""
        res = self.reduce(el).coeffs
        if not res:
            return False
        piv = min(res)
        lead = self.ctx.ring.try_inv(res[piv])
        new = El(self.ctx, {a: lead * v for a, v in res.items()})
        # clear the new pivot from the other rows to keep the basis reduced
        p = self.ctx.ring.modulus
        for i, row in enumerate(self.rows):
            c = row.coeffs.get(piv)
            if c:
                cur = dict(row.coeffs)
                _subtract_multiple(cur, c, new.coeffs, p)
                self.rows[i] = El(self.ctx, cur)
        idx = bisect.bisect(self.pivots, piv)
        self.pivots.insert(idx, piv)
        self.rows.insert(idx, new)
        return True

    def elements(self):
        """Every element of the span (finite field only)."""
        r = self.ctx.ring
        if not r.is_finite:
            raise InputError("cannot enumerate a span over Q")
        vals = r.elements()
        out = [self.ctx.zero()]
        for row in self.rows:
            nxt = []
            for base in out:
                for lam in vals:
                    nxt.append(base + row.scale(lam))
            out = nxt
        return out

    def copy(self) -> "Basis":
        b = Basis(self.ctx)
        b.rows = list(self.rows)
        b.pivots = list(self.pivots)
        return b

    def key(self):
        return tuple(row.key() for row in self.rows)

    def to_json(self):
        return [row.to_json() for row in self.rows]


def span_closure(ctx: Context, elements) -> Basis:
    b = Basis(ctx)
    for el in elements:
        b.extend(el)
    return b


def full_algebra_basis(ctx: Context) -> Basis:
    return span_closure(ctx, ctx.basis_deltas())


def corner_bases(basis: Basis) -> dict:
    """The nonzero corners delta_v C delta_w of C = span(basis), keyed (v, w).

    The cocycle is normalized, so delta_v f delta_w is f restricted to the
    arrows from w to v.  C is a D-bimodule exactly when it is the direct sum
    of these corners, and then its reduced echelon basis is the union of the
    corners' ones: every row lies in one corner, and the corner dimensions
    sum to dim C.  A row that meets two corners raises InputError."""
    g = basis.ctx.groupoid
    corners: dict = {}
    for piv, row in zip(basis.pivots, basis.rows):
        ends = {(int(g.tgt[a]), int(g.src[a])) for a in row.coeffs}
        if len(ends) != 1:
            raise InputError("span is not a D-bimodule: a basis row meets "
                             f"the corners {sorted(ends)}")
        corner = corners.setdefault(ends.pop(), Basis(basis.ctx))
        corner.rows.append(row)
        corner.pivots.append(piv)
    return corners


def intersect_spans(b1: Basis, b2: Basis) -> Basis:
    """Intersection of two spans: each kernel vector x of [rows1 | -rows2]
    gives the common element sum_j x_j rows1[j]."""
    ctx = b1.ctx
    if not b1.rows or not b2.rows:
        return Basis(ctx)
    m = np.stack([ctx.vec(row) for row in b1.rows]
                 + [-ctx.vec(row) for row in b2.rows], axis=1)
    m = m[(m != 0).any(axis=1)]   # arrows outside both supports: zero rows
    out = Basis(ctx)
    for x in ctx.nullspace(m):
        out.extend(ctx.combination(x, b1.rows))
    return out


def algebra_closure(ctx: Context, generators, include_units: bool = True) -> Basis:
    """Smallest subalgebra span containing the generators (and the unit
    indicators unless told otherwise).

    Semi-naive evaluation: found lists, in order, the elements that grew the
    span, and they span it.  Each is multiplied once on each side with every
    earlier one, and once with itself; a product that grows the span joins
    the list.  When the list is exhausted, every product of two spanning
    elements lies in the span, so by bilinearity the span is closed under
    multiplication.  Every entry grew the span, so at most dim A entries are
    ever made, and the loop ends.  A span of dimension dim A is A, closed
    already, so the loop stops there.
    """
    seed = list(generators)
    if include_units:
        seed = ctx.unit_deltas() + seed
    basis = Basis(ctx)
    found = [el for el in seed if basis.extend(el)]
    done = 0
    while done < len(found) and basis.dim < ctx.dim:
        x = found[done]
        done += 1
        for y in found[:done]:
            for prod in (x * y,) if y is x else (x * y, y * x):
                if basis.extend(prod):
                    found.append(prod)
    return basis


# -- bisection decomposition -------------------------------------------------

def is_bisection(g: gpd.Groupoid, arrows) -> bool:
    arrows = list(arrows)
    tg = [int(g.tgt[a]) for a in arrows]
    sr = [int(g.src[a]) for a in arrows]
    return len(set(tg)) == len(arrows) and len(set(sr)) == len(arrows)


def decompose_bisections(f: El, refined: bool = False):
    """Write f as a sum of constant multiples of bisection indicators.

    Plain mode greedily packs equal-coefficient arrows into bisections.
    Refined mode additionally keeps every non-unit piece's target set disjoint
    from its source set (which needs a principal groupoid) and keeps unit
    arrows in unit-only pieces.  Deterministic: arrows are scanned ascending.
    Returns a list of (value, arrows_frozenset, kind) with kind in
    {"unit", "offunit", "mixed"}.
    """
    ctx = f.ctx
    g = ctx.groupoid
    if refined and not g.is_principal():
        raise InputError("refined decomposition needs a principal groupoid")
    by_value: dict = {}
    for a in sorted(f.coeffs):
        by_value.setdefault(f.coeffs[a], []).append(a)
    pieces = []
    for value, arrows in sorted(by_value.items(), key=lambda kv: str(kv[0])):
        groups: list[dict] = []
        for a in arrows:
            unit = g.is_unit(a)
            ta, sa = int(g.tgt[a]), int(g.src[a])
            placed = False
            for grp in groups:
                if refined and grp["unit"] != unit:
                    continue
                if ta in grp["tgts"] or sa in grp["srcs"]:
                    continue
                if refined and not unit:
                    if ta in grp["srcs"] or sa in grp["tgts"] or ta == sa:
                        continue
                grp["arrows"].append(a)
                grp["tgts"].add(ta)
                grp["srcs"].add(sa)
                grp["unit"] = grp["unit"] and unit
                placed = True
                break
            if not placed:
                groups.append({"arrows": [a], "tgts": {ta}, "srcs": {sa}, "unit": unit})
        for grp in groups:
            if all(g.is_unit(a) for a in grp["arrows"]):
                kind = "unit"
            elif all(not g.is_unit(a) for a in grp["arrows"]):
                kind = "offunit"
            else:
                kind = "mixed"
            pieces.append((value, frozenset(grp["arrows"]), kind))
    # exact reassembly is part of the contract
    back = ctx.zero()
    for value, arrows, _ in pieces:
        back = back + ctx.indicator(sorted(arrows), value)
    if back != f:
        raise InternalCheckError("bisection decomposition does not reassemble")
    for _, arrows, _ in pieces:
        if not is_bisection(g, arrows):
            raise InternalCheckError("decomposition produced a non-bisection piece")
    return pieces
