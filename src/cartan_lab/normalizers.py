"""Normalizers of the diagonal, their inverse-semigroup order, and the
reconstruction of the groupoid and twist from normalizer ultrafilters.

An element n of a subalgebra C normalizes the diagonal D when some k in C
satisfies n k n = n, k n k = k, and n D k together with k D n land inside D.
The partner k is unique; we call it the dagger.

Both membership and enumeration work corner by corner, C_{v,w} = delta_v C
delta_w, which needs D C D <= C (true whenever D <= C).  Take n in C with
partner k.  Then nk and kn are idempotents of D, and d -> n d k maps the
units under kn bijectively onto those under nk; call this partial bijection
pi.  So n = sum_w x_w with x_w = delta_pi(w) n delta_w in C_{pi(w),w}, and
y_w = delta_w k delta_pi(w) in C_{w,pi(w)} satisfies y_w x_w = delta_w and
x_w y_w = delta_pi(w).  Conversely any such sum of corner units over a
partial bijection is a normalizer with partner sum_w y_w.

So is_normalizer splits n into its blocks, refuses unless their corners
form a partial bijection, and finds each block's partner in the opposite
corner: in closed form for a one-arrow block, otherwise by the linear solve
x y = delta_v, y x = delta_w over that corner.  Checking those two products
is the whole certificate.  It also follows that kn and nk are the indicators
of the source and target units of supp n, which gives freeness in closed
form.  Enumeration scans only the corners, and the sums are assembled
without a further solve.

The blocks also give the order n <= m, n = m 1_S for a set S of units, that
reconstruction reads ultrafilters from: right multiplication by 1_S keeps the
blocks of m at the units of S and drops the rest, so n <= m exactly when
every block of n is a block of m.  Each block of a normalizer is itself a
normalizer of the span (D <= C), so a nonzero normalizer is minimal exactly
when it has one block, and for a minimal x with source unit w, up(x) is the
set of normalizers whose block at w is x.  up(x) is then an ultrafilter: a
strictly larger proper filter would need a nonzero common lower bound of x
and an element outside up(x), and the only nonzero element below x is x.
UltraStructure indexes the normalizers by their blocks once and reads the
minimal elements and up-sets off that index, with no pairwise comparison.

Order contract of enumerate_normalizers (classify reports the first blocking
normalizer as a witness, so the order shows in reports): zero first, then
each monic normalizer (first nonzero coordinate 1) in lexicographic order of
its coordinates tuple(n.value(p) for p in basis.pivots), each followed by its
scalings lam n with partner lam^-1 k, for lam in ring.units() other than 1.
That is the order of an exhaustive scan of the span.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from cartan_lab import exactlin
from cartan_lab.errors import GuardExceeded, InputError, InternalCheckError
from cartan_lab.groupoid import Groupoid
from cartan_lab.steinberg import (Basis, Context, El, corner_bases, full_algebra_basis,
                                  is_bisection)

SCAN_GUARD = 3_000_000
BATCH_CHUNK = 4096


@dataclass(frozen=True)
class NormalizerCert:
    """A normalizer with its certified partner."""

    n: El
    dagger: El


def dagger_closed_form(ctx: Context, n: El) -> El | None:
    """Candidate partner for a unit-valued element supported on a bisection:
    k(gamma^-1) = omega(gamma^-1, gamma)^-1 n(gamma)^-1.  Returns None when the
    shape does not apply; the result still needs certification."""
    g = ctx.groupoid
    r = ctx.ring
    if n.is_zero() or not is_bisection(g, n.support()):
        return None
    out = {}
    for a, v in n.coeffs.items():
        vi = r.try_inv(v)
        if vi is None:
            return None
        ia = int(g.inv[a])
        wi = r.try_inv(ctx.cocycle.omega(ia, a))
        out[ia] = r.mul(wi, vi)
    return El(ctx, out)


def _block_partner(ctx: Context, x: El, v: int, w: int, opposite: Basis | None):
    """The y in span(opposite), the corner C_{w,v}, with x y = delta_v and
    y x = delta_w, or None."""
    if opposite is None:
        return None
    if len(x.coeffs) == 1:
        y = dagger_closed_form(ctx, x)
        return y if y is not None and opposite.contains(y) else None
    xv = ctx.vec(x)
    cols = [np.concatenate([ctx.conv_vec(xv, cv), ctx.conv_vec(cv, xv)])
            for cv in map(ctx.vec, opposite.rows)]
    rhs = np.concatenate([ctx.vec(ctx.delta(v)), ctx.vec(ctx.delta(w))])
    sol = ctx.solve(np.stack(cols, axis=1), rhs)
    return None if sol is None else ctx.combination(sol, opposite.rows)


def is_normalizer(ctx: Context, n: El, c_basis: Basis | None = None):
    """Certificate for n, or None, block by block as in the module docstring.
    Partners are sought inside the span of c_basis (the whole algebra when
    omitted), which must be a D-bimodule."""
    if not ctx.ring.is_field:
        raise InputError("normalizer decision needs a field")
    basis = c_basis if c_basis is not None else full_algebra_basis(ctx)
    if c_basis is not None and not c_basis.contains(n):
        raise InputError("candidate lies outside the subalgebra")
    corners = corner_bases(basis)
    g = ctx.groupoid
    blocks: dict = {}
    for a, c in n.coeffs.items():
        blocks.setdefault((int(g.tgt[a]), int(g.src[a])), {})[a] = c
    if len({v for v, _ in blocks}) < len(blocks) or len({w for _, w in blocks}) < len(blocks):
        return None
    dagger: dict = {}
    for (v, w), coeffs in blocks.items():
        x = El(ctx, coeffs)
        y = _block_partner(ctx, x, v, w, corners.get((w, v)))
        if y is None:
            return None
        xv, yv = ctx.vec(x), ctx.vec(y)
        if not (np.array_equal(ctx.conv_vec(xv, yv), ctx.vec(ctx.delta(v)))
                and np.array_equal(ctx.conv_vec(yv, xv), ctx.vec(ctx.delta(w)))):
            raise InternalCheckError(f"block partner fails at the corner {(v, w)}")
        dagger.update(y.coeffs)
    return NormalizerCert(n, El(ctx, dagger))


# -- enumeration -------------------------------------------------------------

def _batched_mask(ctx: Context, c_rows, k_rows):
    """The monic candidates of span(c_rows) (first nonzero coefficient 1;
    scalings are recovered afterwards) and a boolean mask over them: does the
    candidate admit a partner in span(k_rows).  Returns (candidates, mask)."""
    p = ctx.p
    d = len(c_rows)
    total = p ** d
    g = ctx.groupoid
    off = np.array(list(g.off_units()), dtype=np.int64)
    cmat = np.array([ctx.vec(cj) for cj in c_rows], dtype=np.int64)
    digits = np.zeros((total, d), dtype=np.int64)
    rep = 1
    for j in range(d - 1, -1, -1):
        digits[:, j] = (np.arange(total) // rep) % p
        rep *= p
    nonzero = digits != 0
    has_any = nonzero.any(axis=1)
    first = nonzero.argmax(axis=1)
    monic = has_any & (digits[np.arange(total), first] == 1)
    digits = digits[monic]
    cands = digits @ cmat % p
    dim = ctx.dim
    n_units = g.n_units
    offdim = len(off)
    nrows = dim + 2 * n_units * offdim
    e = len(k_rows)
    k_vecs = [ctx.vec(kj) for kj in k_rows]
    left_static = [[ctx.vec(ctx.delta(u) * kj) for kj in k_rows] for u in g.units()]
    right_static = [[ctx.vec(kj * ctx.delta(u)) for kj in k_rows] for u in g.units()]
    total = cands.shape[0]
    mask = np.zeros(total, dtype=bool)
    for start in range(0, total, BATCH_CHUNK):
        chunk = cands[start:start + BATCH_CHUNK]
        nb = chunk.shape[0]
        m = np.zeros((nb, nrows, e), dtype=np.int64)
        for j in range(e):
            t1 = ctx.conv_batch_single(chunk, k_vecs[j])
            m[:, :dim, j] = ctx.conv_batch(t1, chunk)
            for ui in range(n_units):
                lo = dim + ui * offdim
                t = ctx.conv_batch_single(chunk, left_static[ui][j])
                m[:, lo:lo + offdim, j] = t[:, off]
                lo2 = dim + (n_units + ui) * offdim
                t = ctx.conv_single_batch(right_static[ui][j], chunk)
                m[:, lo2:lo2 + offdim, j] = t[:, off]
        rhs = np.zeros((nb, nrows), dtype=np.int64)
        rhs[:, :dim] = chunk
        mask[start:start + nb] = exactlin.batch_solvable_mod_p(m, rhs, p)
    return cands, mask


def _corner_units(ctx: Context, basis: Basis) -> dict:
    """The normalizers that lie in one corner, as {w: [(v, scaled)]}: scaled
    lists (lam x, lam^-1 y) as coefficient dicts for lam in ring.units(), with
    x monic in C_{v,w} and y its partner in C_{w,v}, so scaled[0] is (x, y).
    A corner element's partner lies in the opposite corner, so each corner
    runs the batched test against that corner alone; every survivor is
    certified."""
    r = ctx.ring
    lams = r.units()
    corners = corner_bases(basis)
    units: dict = {}
    for (v, w), corner in sorted(corners.items()):
        opposite = corners.get((w, v))
        if opposite is None:
            continue
        cands, mask = _batched_mask(ctx, corner.rows, opposite.rows)
        for i in np.nonzero(mask)[0]:
            cert = is_normalizer(ctx, ctx.el_of_vec(cands[i]), basis)
            if cert is None:
                raise InternalCheckError("batched prefilter and exact solve disagree")
            x, y = cert.n.coeffs, cert.dagger.coeffs
            scaled = [({a: r.mul(lam, c) for a, c in x.items()},
                       {a: r.mul(r.try_inv(lam), c) for a, c in y.items()})
                      for lam in lams]
            units.setdefault(w, []).append((v, scaled))
    return units


def _monic_sums(ctx: Context, units: dict):
    """Every monic sum of corner units over a partial bijection of the units,
    as (n, k) coefficient dicts.  The block holding the smallest arrow of a
    sum carries its leading coefficient, so that block stays monic and every
    other block runs over all its scalings."""
    shapes = [((), frozenset())]
    for w in ctx.groupoid.units():
        grown = []
        for blocks, used in shapes:
            grown.append((blocks, used))
            for v, scaled in units.get(w, ()):
                if v not in used:
                    grown.append((blocks + (scaled,), used | {v}))
        shapes = grown
    for blocks, _ in shapes:
        if not blocks:
            continue
        lead, *rest = sorted(blocks, key=lambda scaled: min(scaled[0][0]))
        for choice in itertools.product(*rest):
            n, k = dict(lead[0][0]), dict(lead[0][1])
            for x, y in choice:
                n.update(x)
                k.update(y)
            yield n, k


def enumerate_normalizers(ctx: Context, c_basis: Basis | None = None,
                          guard: int = SCAN_GUARD):
    """Every normalizer in the span of c_basis, as certified pairs, in the
    order of the module docstring.  The span must be a D-bimodule; the guard
    bounds p^dim(C), the size of the whole span."""
    if not ctx.ring.is_field or not ctx.ring.is_finite:
        raise InputError("normalizer enumeration needs a finite field")
    basis = c_basis if c_basis is not None else full_algebra_basis(ctx)
    certs = [NormalizerCert(ctx.zero(), ctx.zero())]
    if basis.dim == 0:
        return certs
    total = ctx.p ** basis.dim
    if total > guard:
        raise GuardExceeded("normalizer scan candidates", total, guard)
    sums = sorted(_monic_sums(ctx, _corner_units(ctx, basis)),
                  key=lambda nk: tuple(nk[0].get(piv, 0) for piv in basis.pivots))
    scalings = [lam for lam in ctx.ring.units() if lam != ctx.ring.one]
    for n_coeffs, k_coeffs in sums:
        n, k = El(ctx, n_coeffs), El(ctx, k_coeffs)
        certs.append(NormalizerCert(n, k))
        # lam n has partner lam^-1 k: all three identities scale through
        for lam in scalings:
            certs.append(NormalizerCert(n.scale(lam), k.scale(ctx.ring.try_inv(lam))))
    return certs


# -- order and freeness ------------------------------------------------------

def is_free_normalizer(cert: NormalizerCert) -> bool:
    """Free: n lies in D, or (dagger n)(n dagger) = 0.  Those two projections
    are the indicators of the source and target units of supp n, so the
    product vanishes exactly when the two unit sets are disjoint."""
    g = cert.n.ctx.groupoid
    arrows = cert.n.coeffs
    return (all(g.is_unit(a) for a in arrows)
            or {int(g.src[a]) for a in arrows}.isdisjoint(int(g.tgt[a]) for a in arrows))


def _blocks(n: El) -> list:
    """n split by source unit: the blocks n delta_w, one per source unit w of
    supp n."""
    g = n.ctx.groupoid
    parts: dict = {}
    for a, c in n.coeffs.items():
        parts.setdefault(int(g.src[a]), {})[a] = c
    return [El(n.ctx, coeffs) for coeffs in parts.values()]


# -- ultrafilters and reconstruction -----------------------------------------

class UltraStructure:
    """The nonzero normalizers of one span under the inverse-semigroup order,
    with ultrafilters represented by their minimal elements, read off the
    blocks as in the module docstring."""

    def __init__(self, ctx: Context, c_basis: Basis | None = None,
                 guard: int = SCAN_GUARD):
        self.ctx = ctx
        self.certs = enumerate_normalizers(ctx, c_basis, guard)
        self.dagger_of = {cert.n: cert.dagger for cert in self.certs}
        self.nonzero = sorted((c.n for c in self.certs if not c.n.is_zero()),
                              key=lambda e: e.key())
        blocks = {n: _blocks(n) for n in self.nonzero}
        ups: dict = {}
        for n, xs in blocks.items():
            for x in xs:
                ups.setdefault(x, set()).add(n)
        self._ups = {x: frozenset(members) for x, members in ups.items()}
        self.minimals = [n for n in self.nonzero if len(blocks[n]) == 1]

    def up_set(self, n: El) -> frozenset:
        """{m : n <= m} for nonzero n: the normalizers that carry every block
        of n."""
        return frozenset.intersection(*(self._ups.get(x, frozenset()) for x in _blocks(n)))

    def composable(self, u0: El, v0: El) -> bool:
        """Ultrafilter composability off the minimal representatives.

        The projection test (dagger u0) u0 v0 (dagger v0) != 0 agrees with
        u0 v0 != 0, and when it holds no member product can vanish: a member
        is its representative plus arrows over other source units, and those
        extra arrows cannot reach the representative's source unit, so every
        member product restricts back to u0 v0.  (Member-level projection
        products are useless here: invertible members have u (dagger u) = 1.)"""
        du, dv = self.dagger_of[u0], self.dagger_of[v0]
        return not ((du * u0) * (v0 * dv)).is_zero()


def build_sigma_prime(ctx: Context, guard: int = SCAN_GUARD):
    """Groupoid of normalizer ultrafilters.  Returns (sigma_prime, ultra,
    rep_list) with rep_list[i] the minimal representative of arrow i."""
    ultra = UltraStructure(ctx, None, guard)
    g = ctx.groupoid
    mins = ultra.minimals
    unit_reps = []
    for u in g.units():
        du = ctx.delta(u)
        if du not in ultra.dagger_of:
            raise InternalCheckError("unit delta is not a normalizer")
        if du not in mins:
            raise InternalCheckError("unit delta is not minimal")
        unit_reps.append(du)
    rest = [n for n in mins if n not in set(unit_reps)]
    rep_list = unit_reps + rest
    index = {n: i for i, n in enumerate(rep_list)}
    total = len(rep_list)
    src = np.zeros(total, dtype=np.int64)
    tgt = np.zeros(total, dtype=np.int64)
    for n, i in index.items():
        k = ultra.dagger_of[n]
        rr = n * k
        ss = k * n
        if rr not in index or ss not in index:
            raise InternalCheckError("range/source projection is not an ultrafilter unit")
        if index[rr] >= g.n_units or index[ss] >= g.n_units:
            raise InternalCheckError("range/source of an ultrafilter is not a unit")
        tgt[i] = index[rr]
        src[i] = index[ss]
    comp = -np.ones((total, total), dtype=np.int64)
    for a, na in enumerate(rep_list):
        for b, nb in enumerate(rep_list):
            if src[a] != tgt[b]:
                continue
            if not ultra.composable(na, nb):
                raise InternalCheckError("endpoint match without composability")
            prod = na * nb
            if prod not in index:
                raise InternalCheckError("product of minimal representatives not minimal")
            comp[a, b] = index[prod]
    inv = np.zeros(total, dtype=np.int64)
    for n, i in index.items():
        k = ultra.dagger_of[n]
        if k not in index:
            raise InternalCheckError("dagger of a minimal element is not minimal")
        inv[i] = index[k]
    sigma_prime = Groupoid(g.n_units, src, tgt, comp, inv,
                           label=f"ultra({ctx.label})")
    ok, msg = sigma_prime.validate()
    if not ok:
        raise InternalCheckError(f"ultrafilter groupoid invalid: {msg}")
    return sigma_prime, ultra, rep_list


def ultrafilter_groupoid(ctx: Context, guard: int = SCAN_GUARD):
    """Groupoid of ultrafilters together with its quotient by unit scaling.
    Returns (sigma_prime, g_prime, info); info carries the representatives,
    the orbit structure, and the diagnostic flags consumed by phi_check."""
    g = ctx.groupoid
    r = ctx.ring
    sigma_prime, ultra, rep_list = build_sigma_prime(ctx, guard)
    index = {n: i for i, n in enumerate(rep_list)}
    runits = r.units()
    info = {
        "ultra": ultra,
        "rep_list": rep_list,
        "index": index,
        "normalizer_count": len(ultra.nonzero),
        "ultrafilter_count": len(rep_list),
    }
    orbit_of = {}
    orbits = []
    for i, n in enumerate(rep_list):
        if i in orbit_of:
            continue
        orb = []
        for t in runits:
            j = index.get(n.scale(t))
            if j is None:
                info["scaling_closed"] = False
                return sigma_prime, None, info
            if j not in orbit_of:
                orbit_of[j] = len(orbits)
                orb.append(j)
        orbits.append(sorted(orb))
    info["scaling_closed"] = True
    info["orbit_of"] = orbit_of
    info["orbits"] = orbits
    unit_orbits = sorted({orbit_of[u] for u in range(g.n_units)})
    reorder = unit_orbits + [o for o in range(len(orbits)) if o not in unit_orbits]
    pos = {o: i for i, o in enumerate(reorder)}
    info["pos"] = pos
    q_total = len(orbits)
    q_src = np.zeros(q_total, dtype=np.int64)
    q_tgt = np.zeros(q_total, dtype=np.int64)
    q_comp = -np.ones((q_total, q_total), dtype=np.int64)
    q_inv = np.zeros(q_total, dtype=np.int64)
    for o_idx, orb in enumerate(orbits):
        i = orb[0]
        q_src[pos[o_idx]] = pos[orbit_of[int(sigma_prime.src[i])]]
        q_tgt[pos[o_idx]] = pos[orbit_of[int(sigma_prime.tgt[i])]]
        q_inv[pos[o_idx]] = pos[orbit_of[int(sigma_prime.inv[i])]]
    well_defined = True
    for o1, orb1 in enumerate(orbits):
        for o2, orb2 in enumerate(orbits):
            results = set()
            for i in orb1:
                for j in orb2:
                    c = sigma_prime.comp[i, j]
                    if c >= 0:
                        results.add(orbit_of[int(c)])
            if len(results) > 1:
                well_defined = False
            if results:
                q_comp[pos[o1], pos[o2]] = pos[results.pop()]
    info["quotient_well_defined"] = well_defined
    quotient = Groupoid(len(unit_orbits), q_src, q_tgt, q_comp, q_inv,
                        label=f"quotient({ctx.label})")
    ok, msg = quotient.validate()
    info["quotient_valid"] = ok
    if not ok:
        info["quotient_violation"] = msg
        return sigma_prime, None, info
    return sigma_prime, quotient, info


def phi_check(ctx: Context, guard: int = SCAN_GUARD) -> dict:
    """Reconstruction report: the ultrafilter groupoid, its scaling quotient,
    the arrow-level comparison map, and the twist-level comparison."""
    g = ctx.groupoid
    r = ctx.ring
    sigma_prime, quotient, info = ultrafilter_groupoid(ctx, guard)
    ultra = info["ultra"]
    rep_list = info["rep_list"]
    index = info["index"]
    runits = r.units()
    report = {
        "normalizer_count": info["normalizer_count"],
        "ultrafilter_count": info["ultrafilter_count"],
        "expected_total_size": len(runits) * g.num_arrows,
        "total_size_matches": info["ultrafilter_count"] == len(runits) * g.num_arrows,
        "scaling_closed": info["scaling_closed"],
    }
    if not info["scaling_closed"]:
        return report
    orbit_of = info["orbit_of"]
    orbits = info["orbits"]
    pos = info["pos"]
    report["orbit_count"] = len(orbits)
    report["quotient_well_defined"] = info["quotient_well_defined"]
    report["quotient_valid"] = info["quotient_valid"]
    if quotient is None:
        report["quotient_violation"] = info.get("quotient_violation")
        return report
    q_total = len(orbits)
    # arrow-level comparison: gamma -> orbit of up(delta_gamma)
    phi = {}
    injective = True
    for a in range(g.num_arrows):
        da = ctx.delta(a)
        j = index.get(da)
        if j is None:
            report["arrow_map_total"] = False
            return report
        phi[a] = pos[orbit_of[j]]
    report["arrow_map_total"] = True
    if len(set(phi.values())) != g.num_arrows or q_total != g.num_arrows:
        injective = False
    units_ok = all(phi[u] == u for u in g.units())
    homo = True
    for a in range(g.num_arrows):
        for b in range(g.num_arrows):
            c = g.comp[a, b]
            qc = quotient.comp[phi[a], phi[b]]
            if (c >= 0) != (qc >= 0):
                homo = False
            elif c >= 0 and phi[int(c)] != int(qc):
                homo = False
    report["arrow_map_bijective"] = injective
    report["arrow_map_units"] = units_ok
    report["arrow_map_homomorphism"] = homo
    report["groupoid_isomorphic"] = injective and units_ok and homo
    # support sets: {n : n(gamma) != 0} must be the union of the orbit's up-sets
    support_sets_ok = True
    for a in range(g.num_arrows):
        sa = {n for n in ultra.nonzero if n.value(a) != r.zero}
        j = index[ctx.delta(a)]
        orb = orbits[orbit_of[j]]
        union = set()
        for i in orb:
            union |= ultra.up_set(rep_list[i])
        if sa != union:
            support_sets_ok = False
            break
    report["support_sets_match"] = support_sets_ok
    # twist level: (t, gamma) -> up(t delta_gamma) against the twisted product
    twist_ok = True
    for t in runits:
        for a in range(g.num_arrows):
            for t2 in runits:
                for b in range(g.num_arrows):
                    c = g.comp[a, b]
                    i = index.get(ctx.delta(a).scale(t))
                    j = index.get(ctx.delta(b).scale(t2))
                    if i is None or j is None:
                        twist_ok = False
                        break
                    sc = sigma_prime.comp[i, j]
                    if (c >= 0) != (sc >= 0):
                        twist_ok = False
                        continue
                    if c < 0:
                        continue
                    tv = r.mul(r.mul(t, t2), ctx.cocycle.omega(a, b))
                    expected = index.get(ctx.delta(int(c)).scale(tv))
                    if expected is None or int(sc) != expected:
                        twist_ok = False
    report["twist_squares_match"] = twist_ok
    report["reconstructed"] = (report["total_size_matches"]
                               and report["groupoid_isomorphic"]
                               and support_sets_ok and twist_ok)
    return report
