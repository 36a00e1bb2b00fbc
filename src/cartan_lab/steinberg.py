"""Convolution algebras of finite groupoids with a discrete twist.

A Context bundles groupoid + ring + cocycle.  Sparse convolution
(Context.convolve) multiplies the supports of its two factors pair by pair
through the composition table, taking omega(a, b) from the cocycle table (1
where the pair is missing).  The dense path precomputes the composable pairs
(a, b), their products and omega(a, b) once, so that conv_vec is a single
scatter-add over them, with batched versions (one factor a stack of rows) for
the normalizer scan and the block partner solve.

Elements are sparse dicts {arrow: coefficient} with zeros purged, so
structural equality is mathematical equality.  Dense vectors and the exact
solves behind them are the one place that knows how coefficients are
stored: numpy int64 residues over F_p, object arrays of Fraction over Q.
Spans (Basis), subalgebra closures and those solves share one elimination
kernel for Q and F_p, exactlin's reduced echelon step on coefficient dicts.
A span of deltas is built without it, as its arrow set (Basis.coordinate),
and two spans built so intersect in their common arrows; on a principal
groupoid every subalgebra containing the unit deltas is one, and
algebra_closure closes the arrow set under composition instead.  A span that
is a D-bimodule is the direct sum of its corners delta_v C delta_w; a Basis
holds them (Basis.corners) and its dense rows (Basis.matrix), each made once.
"""

import copy
import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
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
        # the corner units of each scanned opposite corner pair as coefficient
        # dicts, keyed by the two corners' echelon keys (normalizers._corner_units),
        # and each corner's span answers, keyed by its echelon key and its
        # opposite's, None when absent (normalizers.corner_answers)
        self._corner_scans: dict = {}
        self._corner_answers: dict = {}
        self._hash: str | None = None

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

    def _mul(self, x, y):
        """Elementwise product; over F_p reduced at once, since int64 holds
        (p-1)^2 but not (p-1)^3."""
        return x * y % self.p if self.is_fp else x * y

    def _scatter(self, prod: np.ndarray) -> np.ndarray:
        """Sum a (B, pairs) array of pair products onto their product arrows."""
        out = np.zeros((prod.shape[0], self.dim), dtype=self._dtype)
        np.add.at(out, (np.arange(prod.shape[0])[:, None], self._C[None, :]), prod)
        return out % self.p if self.is_fp else out

    def conv_vec(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        out = np.zeros(self.dim, dtype=self._dtype)
        np.add.at(out, self._C, self._mul(self._mul(self._W, f[self._A]), g[self._B]))
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

    def combine_rows(self, coeffs, mat: np.ndarray) -> np.ndarray:
        """sum_j coeffs[j] mat[j] as a dense vector, each product reduced
        before the sum."""
        out = self._mul(np.asarray(coeffs, dtype=self._dtype)[:, None], mat).sum(axis=0)
        return out % self.p if self.is_fp else out

    def combination(self, coeffs, rows) -> "El":
        """sum_j coeffs[j] rows[j]; extra coefficients are ignored."""
        out = self.zero()
        for c, row in zip(coeffs, rows):
            if c:
                out = out + row.scale(c)
        return out

    def conv_batch(self, F: np.ndarray, G: np.ndarray) -> np.ndarray:
        """Row-wise convolution of two (B, dim) batches."""
        return self._scatter(self._mul(self._mul(self._W[None, :], F[:, self._A]),
                                       G[:, self._B]))

    def conv_batch_single(self, F: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Row-wise F[i] g."""
        return self._scatter(self._mul(F[:, self._A], self._mul(self._W, g[self._B])[None, :]))

    def conv_single_batch(self, f: np.ndarray, G: np.ndarray) -> np.ndarray:
        """Row-wise f G[i]."""
        return self._scatter(self._mul(self._mul(self._W, f[self._A])[None, :], G[:, self._B]))

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
        """A digest of the tables, ring and twist; computed once, since a
        Context does not change after it is built."""
        if self._hash is not None:
            return self._hash
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
        self._hash = hashlib.sha256(blob.encode()).hexdigest()[:16]
        return self._hash


def context_from_json(data: dict) -> Context:
    if not isinstance(data, dict):
        raise InputError(f"a context is an object with 'groupoid' and 'ring', not {data!r}")
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
        return coeffs_key(self.coeffs)

    def to_json(self) -> dict:
        r = self.ctx.ring
        return {str(a): r.coeff_str(v) for a, v in sorted(self.coeffs.items())}

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{v}@{a}" for a, v in sorted(self.coeffs.items()))


def coeffs_key(coeffs: dict) -> tuple:
    """The canonical sortable form of a coefficient dict in canonical,
    zero-purged values: its (arrow, coefficient string) pairs by arrow."""
    return tuple(sorted((a, str(v)) for a, v in coeffs.items()))


def el_from_json(ctx: Context, data: dict) -> El:
    if not isinstance(data, dict):
        raise InputError(f"an element is an object {{arrow id: coefficient}}, not {data!r}")
    out = {}
    for k, v in data.items():
        try:
            a = int(k)
        except ValueError as exc:
            raise InputError(f"element key {k!r} is not an arrow id") from exc
        if not (0 <= a < ctx.dim):
            raise InputError(f"arrow id {a} out of range")
        out[a] = ctx.ring.coeff_from_str(str(v))
    return El(ctx, out)


class Basis:
    """Reduced row echelon basis of a subspace of A, ordered by pivot arrow.

    Field coefficients only.  rows[i] has coefficient 1 at its pivot arrow
    pivots[i] and 0 at every other pivot, and pivots strictly increase.  The
    reduced echelon basis of a span is unique, so key() identifies the span,
    whatever order its vectors arrived in.

    The span is held in exactlin's scalar kernel form, the one that the
    dense solves also eliminate through: coeffs[i] is rows[i]'s coefficient
    dict, in the ring's canonical values.  The kernel replaces a changed dict
    rather than edit it, so bases may share them.  rows, the same vectors as
    elements, key(), corners and matrix are built when first read after a
    change; copy shares them and extend drops them.  arrows is the arrow set
    of a span that Basis.coordinate built, kept by copy and dropped when
    extend grows the span; None for every other span.
    """

    def __init__(self, ctx: Context):
        if not ctx.ring.is_field:
            raise InputError("span computations need a field")
        self.ctx = ctx
        self.coeffs: list[dict] = []
        self.pivots: list[int] = []
        self._key: tuple | None = None
        self.arrows: frozenset | None = None

    @classmethod
    def coordinate(cls, ctx: Context, arrows) -> "Basis":
        """The span of the deltas of the given arrows: its pivots are the
        sorted arrows, and each row is 1 at its own pivot."""
        b = cls(ctx)
        b.arrows = frozenset(int(a) for a in arrows)
        b.pivots = sorted(b.arrows)
        one = ctx.ring.one
        b.coeffs = [{a: one} for a in b.pivots]
        return b

    @cached_property
    def rows(self) -> list[El]:
        return [El(self.ctx, c) for c in self.coeffs]

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @cached_property
    def corners(self) -> dict:
        """The nonzero corners delta_v C delta_w of C = span(self), keyed
        (v, w).  C is a D-bimodule exactly when it is their direct sum, and
        then its reduced echelon rows are theirs: a row that meets two corners
        raises InputError.  The corners share the span's row dicts and are
        never extended."""
        g = self.ctx.groupoid
        corners: dict = {}
        for piv, row in zip(self.pivots, self.coeffs):
            ends = {(int(g.tgt[a]), int(g.src[a])) for a in row}
            if len(ends) != 1:
                raise InputError("span is not a D-bimodule: a basis row meets "
                                 f"the corners {sorted(ends)}")
            corner = corners.setdefault(ends.pop(), Basis(self.ctx))
            corner.coeffs.append(row)
            corner.pivots.append(piv)
        return corners

    @cached_property
    def matrix(self) -> np.ndarray:
        """The rows as a read-only (dim, dim A) array of dense vectors."""
        m = np.zeros((self.dim, self.ctx.dim), dtype=self.ctx._dtype)
        for i, row in enumerate(self.coeffs):
            m[i, list(row)] = list(row.values())
        m.flags.writeable = False
        return m

    def reduce(self, el: El) -> El:
        return El(self.ctx, exactlin.residue(self.coeffs, self.pivots, el.coeffs,
                                             self.ctx.ring.modulus))

    def contains(self, el: El) -> bool:
        return not exactlin.residue(self.coeffs, self.pivots, el.coeffs, self.ctx.ring.modulus)

    def extend(self, el: El) -> bool:
        """Add el to the span; returns True when the dimension grew."""
        res = self.reduce(el).coeffs
        if not res:
            return False
        exactlin.insert_residue(self.coeffs, self.pivots, res, self.ctx.ring.modulus)
        self._key = self.arrows = None
        for cached in ("rows", "corners", "matrix"):
            vars(self).pop(cached, None)
        return True

    def copy(self) -> "Basis":
        b = copy.copy(self)   # shares every cache
        b.coeffs, b.pivots = list(self.coeffs), list(self.pivots)
        return b

    def key(self):
        if self._key is None:
            self._key = tuple(coeffs_key(c) for c in self.coeffs)
        return self._key

    def to_json(self):
        return [row.to_json() for row in self.rows]


def span_closure(ctx: Context, elements) -> Basis:
    b = Basis(ctx)
    for el in elements:
        b.extend(el)
    return b


def full_algebra_basis(ctx: Context) -> Basis:
    return Basis.coordinate(ctx, range(ctx.dim))


def corner_blocks(f: El) -> dict:
    """The nonzero blocks delta_v f delta_w of f, keyed (v, w) in sorted order.

    The cocycle is normalized, so delta_v f delta_w is f restricted to the
    arrows from w to v: one pass over supp f, no convolution."""
    g = f.ctx.groupoid
    blocks: dict = {}
    for a, c in f.coeffs.items():
        blocks.setdefault((int(g.tgt[a]), int(g.src[a])), {})[a] = c
    return {vw: El(f.ctx, coeffs) for vw, coeffs in sorted(blocks.items())}


def intersect_spans(b1: Basis, b2: Basis) -> Basis:
    """Intersection of two spans: the span of their common arrows when both
    carry an arrow set, else each kernel vector x of [rows1 | -rows2] gives
    the common element sum_j x_j rows1[j]."""
    ctx = b1.ctx
    if b1.arrows is not None and b2.arrows is not None:
        return Basis.coordinate(ctx, b1.arrows & b2.arrows)
    if not b1.dim or not b2.dim:
        return Basis(ctx)
    m = np.concatenate([b1.matrix, -b2.matrix]).T
    m = m[(m != 0).any(axis=1)]   # arrows outside both supports: zero rows
    out = Basis(ctx)
    for x in ctx.nullspace(m):
        out.extend(ctx.combination(x, b1.rows))
    return out


def algebra_closure(ctx: Context, generators) -> Basis:
    """Smallest subalgebra span containing the unit deltas and the generators.

    On a principal groupoid each corner delta_v A delta_w holds at most one
    arrow.  The closure C contains D, so it is a D-bimodule, and
    delta_v f delta_w = f(a) delta_a puts delta_a in C for every arrow a in
    the support of a generator f.  The deltas of the composition closure of
    the units and those supports span an algebra containing the generators
    (delta_a delta_b = omega(a, b) delta_ab, omega a unit), so they span C.

    Elsewhere, semi-naive evaluation: found lists, in order, the elements
    that grew the span, and they span it.  Each is multiplied once on each
    side with every earlier one, and once with itself; a product that grows
    the span joins the list.  When the list is exhausted, every product of
    two spanning elements lies in the span, so by bilinearity the span is
    closed under multiplication.  Every entry grew the span, so at most
    dim A entries are ever made, and the loop ends.  A span of dimension
    dim A is A, closed already, so the loop stops there.
    """
    g = ctx.groupoid
    if g.is_principal():
        support = set(g.units())
        for el in generators:
            support.update(el.coeffs)
        return Basis.coordinate(ctx, g.compose_closure(support))
    seed = ctx.unit_deltas() + list(generators)
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


def decompose_bisections(f: El):
    """Write f as a sum of constant multiples of bisection indicators whose
    target sets avoid their source sets, the pieces sign families need.

    Arrows with equal coefficients are packed greedily, ascending, into
    pieces: unit arrows into unit-only pieces, every other arrow into a piece
    none of whose targets or sources it shares as a target or a source.
    That needs a principal groupoid, since an isotropy arrow's target is its
    source.  Deterministic.  Returns a list of (value, arrows_frozenset,
    kind) with kind "unit" or "offunit".
    """
    ctx = f.ctx
    g = ctx.groupoid
    if not g.is_principal():
        raise InputError("bisection pieces with ranges off their sources "
                         "need a principal groupoid")
    by_value: dict = {}
    for a in sorted(f.coeffs):
        by_value.setdefault(f.coeffs[a], []).append(a)
    pieces = []
    for value, arrows in sorted(by_value.items(), key=lambda kv: str(kv[0])):
        groups: list[dict] = []
        for a in arrows:
            unit = g.is_unit(a)
            ta, sa = int(g.tgt[a]), int(g.src[a])
            grp = next((grp for grp in groups
                        if grp["unit"] == unit and not {ta, sa} & grp["ends"]), None)
            if grp is None:
                groups.append({"arrows": [a], "ends": {ta, sa}, "unit": unit})
            else:
                grp["arrows"].append(a)
                grp["ends"] |= {ta, sa}
        for grp in groups:
            pieces.append((value, frozenset(grp["arrows"]),
                           "unit" if grp["unit"] else "offunit"))
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
