"""Brute-force references for the normalizer layer.

These follow the definitions verbatim, assemble every normalizer and compare
pairs of elements, so they are slow; the tests check the fast paths of
cartan_lab.normalizers against them on small contexts.
"""

import itertools
from unittest import mock

import numpy as np

from cartan_lab import inclusions
from cartan_lab import normalizers as nz
from cartan_lab.errors import GuardExceeded, InputError, InternalCheckError
from cartan_lab.groupoid import Groupoid
from cartan_lab.normalizers import NormalizerCert
from cartan_lab.steinberg import Basis, El, full_algebra_basis, span_closure
from cartan_lab.twist import Cocycle


def verify_cert(cert: NormalizerCert, c_basis=None) -> bool:
    """The normalizer definition for (n, dagger): n k n = n, k n k = k, and
    n D k, k D n inside D; with c_basis, both also lie in its span."""
    n, k = cert.n, cert.dagger
    ctx = n.ctx
    if not (n * k * n == n and k * n * k == k):
        return False
    for u in ctx.groupoid.units():
        du = ctx.delta(u)
        if not ctx.off_unit_part(n * du * k).is_zero():
            return False
        if not ctx.off_unit_part(k * du * n).is_zero():
            return False
    if c_basis is not None:
        if not (c_basis.contains(n) and c_basis.contains(k)):
            return False
    return True


def is_free_normalizer(cert: NormalizerCert) -> bool:
    """Free: n lies in D, or (dagger n)(n dagger) = 0.  Those two projections
    are the indicators of the source and target units of supp n, so the
    product vanishes exactly when the two unit sets are disjoint."""
    g = cert.n.ctx.groupoid
    arrows = cert.n.coeffs
    return (all(g.is_unit(a) for a in arrows)
            or {int(g.src[a]) for a in arrows}.isdisjoint(int(g.tgt[a]) for a in arrows))


def span_elements(basis) -> list:
    """Every element of the span (finite field only): each combination of
    the rows, the first row's coefficient varying slowest."""
    ctx = basis.ctx
    r = ctx.ring
    if not r.is_finite:
        raise InputError("cannot enumerate a span over Q")
    vals = r.elements()
    out = [ctx.zero()]
    for row in basis.rows:
        out = [base + row.scale(lam) for base in out for lam in vals]
    return out


def exhaustive_partners(ctx, n, c_basis=None, guard: int = 200_000):
    """All k in the span with verify_cert(n, k): partner uniqueness by brute
    force on tiny contexts."""
    if not ctx.ring.is_finite:
        raise InputError("exhaustive partner scan needs a finite ring")
    basis = c_basis if c_basis is not None else full_algebra_basis(ctx)
    count = len(ctx.ring.elements()) ** basis.dim
    if count > guard:
        raise GuardExceeded("exhaustive partner scan", count, guard)
    return [k for k in span_elements(basis) if verify_cert(NormalizerCert(n, k))]


def split_corners(basis) -> dict:
    """The corners delta_v C delta_w of C = span(basis) as {(v, w): Basis},
    split afresh row by row: each row goes to the corner of the ends of its
    arrows, and a row whose arrows have two pairs of ends raises InputError.
    The reference for Basis.corners."""
    g = basis.ctx.groupoid
    corners: dict = {}
    for piv, row in zip(basis.pivots, basis.coeffs):
        ends = {(int(g.tgt[a]), int(g.src[a])) for a in row}
        if len(ends) != 1:
            raise InputError(f"a basis row meets the corners {sorted(ends)}")
        corner = corners.setdefault(ends.pop(), Basis(basis.ctx))
        corner.coeffs.append(row)
        corner.pivots.append(piv)
    return corners


def corner_units(ctx, basis, skip=()) -> list:
    """The corner units of the span as normalizers._corner_units returns
    them, with every corner but those in skip scanned and every survivor
    certified on its own: no partner map, no mates.  The oracle splits the
    span itself."""
    r = ctx.ring
    lams = r.units()
    corners = split_corners(basis)
    units = []
    for (v, w), corner in sorted(corners.items()):
        opposite = corners.get((w, v))
        if opposite is None or (v, w) in skip:
            continue
        cands, mask = nz._batched_mask(ctx, corner, opposite)
        for i in np.nonzero(mask)[0]:
            cert = nz.is_normalizer(ctx, ctx.el_of_vec(cands[i]), basis)
            if cert is None:
                raise InternalCheckError("batched prefilter and exact solve disagree")
            x, y = cert.n.coeffs, cert.dagger.coeffs
            units.append([({a: r.mul(lam, c) for a, c in x.items()},
                           {a: r.mul(r.try_inv(lam), c) for a, c in y.items()})
                          for lam in lams])
    return units


def scan_classify(ctx, c_basis=None, guard: int = nz.SCAN_GUARD):
    """inclusions.classify with every corner scanned and none counted: the
    forced-scan path that the counted isotropy corners must agree with."""
    with mock.patch.object(inclusions, "counted_corners", lambda *args: []):
        return inclusions.classify(ctx, c_basis, guard)


def span_flags(ctx, c_basis=None):
    """regular, free_span and delta_faithful of the span, with their dims and
    witnesses, decided on the whole of C from every corner unit, none
    counted: the spans of N(C,D) and of its free part, the first row of C
    outside each, and the first kernel vector of the faithfulness matrix,
    Delta(n c) for n over a basis of spn N(C,D) against c over the rows of C.
    Returns (flags, witnesses, dims)."""
    basis = c_basis if c_basis is not None else full_algebra_basis(ctx)
    units = nz.enumerate_normalizers(ctx, basis)[1:]
    nspan = span_closure(ctx, [cert.n for cert in units])
    fspan = span_closure(ctx, [cert.n for cert in units if is_free_normalizer(cert)])
    flags, wits, dims = {}, {}, {}
    for flag, dim, span in (("regular", "normalizer_span", nspan),
                            ("free_span", "free_span", fspan)):
        dims[dim] = span.dim
        outside = [row for row in basis.rows if not span.contains(row)]
        flags[flag] = not outside
        if outside:
            wits[flag] = outside[0]
    mat = np.stack([np.concatenate([ctx.vec(n * c)[:ctx.n_units] for n in nspan.rows])
                    for c in basis.rows], axis=1)
    kern = ctx.nullspace(mat)
    flags["delta_faithful"] = not len(kern)
    if len(kern):
        wits["delta_faithful"] = ctx.combination(kern[0], basis.rows)
    return flags, wits, dims


def all_normalizers(ctx, basis) -> list:
    """Every normalizer of the span, assembled as the sums of corner units over
    the partial bijections of the units, in the order of the exhaustive scan:
    zero, then each monic normalizer in coordinate order followed by its
    scalings.  The block holding the smallest arrow of a sum carries its
    leading coefficient, so that block stays monic and every other block runs
    over all its scalings."""
    r = ctx.ring
    g = ctx.groupoid
    units: dict = {}   # {w: [(v, scaled)]} for the corner units in C_{v,w}
    for scaled in corner_units(ctx, basis):
        a = min(scaled[0][0])
        units.setdefault(int(g.src[a]), []).append((int(g.tgt[a]), scaled))
    shapes = [((), frozenset())]
    for w in ctx.groupoid.units():
        grown = []
        for blocks, used in shapes:
            grown.append((blocks, used))
            for v, scaled in units.get(w, ()):
                if v not in used:
                    grown.append((blocks + (scaled,), used | {v}))
        shapes = grown
    sums = []
    for blocks, _ in shapes:
        if not blocks:
            continue
        lead, *rest = sorted(blocks, key=lambda scaled: min(scaled[0][0]))
        for choice in itertools.product(*rest):
            n, k = dict(lead[0][0]), dict(lead[0][1])
            for x, y in choice:
                n.update(x)
                k.update(y)
            sums.append((n, k))
    sums.sort(key=lambda nk: tuple(nk[0].get(piv, 0) for piv in basis.pivots))
    certs = [NormalizerCert(ctx.zero(), ctx.zero())]
    for n_coeffs, k_coeffs in sums:
        n, k = El(ctx, n_coeffs), El(ctx, k_coeffs)
        # lam n has partner lam^-1 k: all three identities scale through
        certs += [NormalizerCert(n.scale(lam), k.scale(r.try_inv(lam))) for lam in r.units()]
    return certs


class AssembledOrder:
    """The nonzero normalizers of one span, all of them assembled, sorted by
    key, with their partners and the minimal elements under leq."""

    def __init__(self, ctx, c_basis=None):
        self.certs = all_normalizers(ctx, c_basis if c_basis is not None
                                     else full_algebra_basis(ctx))
        self.dagger_of = {cert.n: cert.dagger for cert in self.certs}
        self.nonzero = sorted((c.n for c in self.certs if not c.n.is_zero()),
                              key=lambda e: e.key())
        self.minimals = minimals(self)


def leq(n, m) -> bool:
    """n <= m in the normalizer order: n = m . 1_S for some unit set S.
    Equivalently n agrees with m on its support and that support is a union
    of source fibers of supp(m)."""
    g = n.ctx.groupoid
    for a, v in n.coeffs.items():
        if m.value(a) != v:
            return False
    srcs = {int(g.src[a]) for a in n.coeffs}
    for a in m.coeffs:
        if int(g.src[a]) in srcs and a not in n.coeffs:
            return False
    return True


def restriction(m, unit_set):
    """m . 1_S for S = unit_set."""
    g = m.ctx.groupoid
    s = set(unit_set)
    return m.ctx.element({a: v for a, v in m.coeffs.items() if int(g.src[a]) in s})


def minimals(ultra) -> list:
    """The nonzero normalizers with no other nonzero normalizer below them."""
    return [n for n in ultra.nonzero
            if not any(leq(m, n) and m != n for m in ultra.nonzero)]


def up_set(ultra, n) -> frozenset:
    return frozenset(m for m in ultra.nonzero if leq(n, m))


def assert_ultra(ultra, n):
    """up(n) is a maximal proper filter: n is minimal, and no element outside
    up(n) has a nonzero common lower bound with n."""
    below = [m for m in ultra.nonzero if leq(m, n)]
    if below != [n]:
        raise InternalCheckError("ultrafilter representative is not minimal")
    up = up_set(ultra, n)
    for x in ultra.nonzero:
        if x not in up and any(leq(z, x) for z in below):
            raise InternalCheckError("up-set is not maximal")


def is_filter(ultra, subset) -> bool:
    """A nonempty up-closed set of nonzero normalizers in which every two
    members have a common lower bound in the set."""
    sub = set(subset)
    if not sub or not sub <= set(ultra.nonzero):
        return False
    for n in sub:
        for m in ultra.nonzero:
            if leq(n, m) and m not in sub:
                return False
    for a in sub:
        for b in sub:
            if not any(leq(z, a) and leq(z, b) for z in sub):
                return False
    return True


def projection_test(ultra, u0, v0) -> bool:
    """Ultrafilter composability off the minimal representatives:
    (dagger u0) u0 v0 (dagger v0) != 0."""
    du, dv = ultra.dagger_of[u0], ultra.dagger_of[v0]
    return not ((du * u0) * (v0 * dv)).is_zero()


def composable(ultra, u0, v0) -> bool:
    """The projection test with its claims checked over all pairs of members
    of up(u0) and up(v0).  It agrees with u0 v0 != 0 and with the endpoint
    match src(u0) = tgt(v0) (for minimal elements the two projections are the
    deltas of those units), and when it holds no member product can vanish:
    a member is its representative plus arrows over other source units, and
    those extra arrows cannot reach the representative's source unit, so
    every member product is nonzero and lies above u0 v0.  (Member-level
    projection products are useless here: invertible members have
    u (dagger u) = 1.)"""
    g = u0.ctx.groupoid
    rep = projection_test(ultra, u0, v0)
    prod = u0 * v0
    if rep == prod.is_zero():
        raise InternalCheckError("projection test disagrees with the representative product")
    (src,) = {int(g.src[a]) for a in u0.coeffs}
    (tgt,) = {int(g.tgt[b]) for b in v0.coeffs}
    if rep != (src == tgt):
        raise InternalCheckError("projection test disagrees with the endpoint match")
    if rep:
        for u in up_set(ultra, u0):
            for v in up_set(ultra, v0):
                uv = u * v
                if uv.is_zero() or not leq(prod, uv):
                    raise InternalCheckError("member product escapes the representative product")
    return rep


# -- reconstruction by pairwise loops -----------------------------------------

def build_sigma_prime(ctx):
    """Groupoid of normalizer ultrafilters, with endpoints from the range and
    source projections n k and k n and every endpoint-matched pair put through
    the projection test.  Returns (sigma_prime, ultra, rep_list)."""
    ultra = AssembledOrder(ctx)
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
            if not projection_test(ultra, na, nb):
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


def ultrafilter_groupoid(ctx):
    """Groupoid of ultrafilters together with its quotient by unit scaling,
    orbit pair by orbit pair.  Returns (sigma_prime, g_prime, info)."""
    g = ctx.groupoid
    r = ctx.ring
    sigma_prime, ultra, rep_list = build_sigma_prime(ctx)
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


def phi_check(ctx) -> dict:
    """The reconstruction report with every comparison as a loop: the arrow
    map phi pair by pair, the support sets from the up-sets, and the twist
    over all (t, gamma), (t2, eta)."""
    g = ctx.groupoid
    r = ctx.ring
    sigma_prime, quotient, info = ultrafilter_groupoid(ctx)
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
            union |= up_set(ultra, rep_list[i])
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


# -- total groupoid ----------------------------------------------------------

def sigma_total(cocycle: Cocycle):
    """The total groupoid on R^x x G for a validated twist: the Sigma that
    reconstruction reads back from the normalizer ultrafilters.

    Returns (sigma, pair_of, id_of, q) where pair_of maps sigma arrow ids to
    (t, gamma), id_of inverts that, and q projects sigma arrows onto G.
    Asserts that the unit-fiber copies of R^x are central in each isotropy.
    """
    g = cocycle.groupoid
    r = cocycle.ring
    if not r.is_finite:
        raise InputError("total groupoid needs a finite coefficient ring")
    units = r.units()
    ids = {}
    for u in g.units():
        ids[(r.one, u)] = u
    nxt = g.n_units
    for t in units:
        for a in range(g.num_arrows):
            if (t, a) in ids:
                continue
            ids[(t, a)] = nxt
            nxt += 1
    total = nxt
    pair_of = {v: k for k, v in ids.items()}
    src = np.zeros(total, dtype=np.int64)
    tgt = np.zeros(total, dtype=np.int64)
    for (t, a), sid in ids.items():
        src[sid] = int(g.src[a])
        tgt[sid] = int(g.tgt[a])
    comp = -np.ones((total, total), dtype=np.int64)
    for (t, a), sa in ids.items():
        for (t2, b), sb in ids.items():
            c = g.comp[a, b]
            if c >= 0:
                tv = r.mul(r.mul(t, t2), cocycle.omega(a, b))
                comp[sa, sb] = ids[(tv, int(c))]
    inv = np.zeros(total, dtype=np.int64)
    for (t, a), sa in ids.items():
        ti = r.mul(r.try_inv(t), r.try_inv(cocycle.omega(a, int(g.inv[a]))))
        inv[sa] = ids[(ti, int(g.inv[a]))]
    sigma = Groupoid(g.n_units, src, tgt, comp, inv,
                     label=f"total({g.label})")
    ok, msg = sigma.validate()
    if not ok:
        raise InternalCheckError(f"total groupoid invalid: {msg}")
    # fibers of the projection all have size |R^x|
    q = np.array([pair_of[sid][1] for sid in range(total)], dtype=np.int64)
    fiber = np.bincount(q, minlength=g.num_arrows)
    if not (fiber == len(units)).all():
        raise InternalCheckError("projection fibers are not uniform")
    # centrality of the unit fibers: (t, u) commutes with every loop at u
    for t in units:
        for (t2, a), sa in ids.items():
            u, w = int(g.tgt[a]), int(g.src[a])
            left = comp[ids[(t, u)], sa]
            right = comp[sa, ids[(t, w)]]
            if left != right:
                raise InternalCheckError("unit fiber is not central")
    return sigma, pair_of, ids, q
