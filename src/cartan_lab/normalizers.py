"""Normalizers of the diagonal, their corner units, and the reconstruction
of the groupoid and twist from normalizer ultrafilters.

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
x y = delta_v over that corner.  That one side determines y: for an arrow g
from w to v, x = delta_g s and y = t delta_g^-1 with s, t in the corner
algebra delta_w A delta_w, where s t = delta_w forces t s = delta_w (finite
dimension), so y x = delta_w.  Checking both products is the whole
certificate.  It also follows that kn and nk are the indicators of the
source and target units of supp n, which gives freeness in closed form: a
corner unit is free exactly when its corner joins two distinct units or it
is a multiple of a unit delta.

The partner is unique, so n -> dagger n is an involution, and on the corner
units it is a bijection from those of C_{v,w} onto those of C_{w,v}: a
certificate (x, y) read the other way round certifies y with partner x.
Enumeration lists the monic units (first coordinate 1), and the monic form
of y is y / c with partner c x, for c the first coordinate of y.  So it
scans one corner of each opposite pair, takes the units of the other corner
from the partners, and in an isotropy corner C_{v,v}, where the involution
pairs each monic unit with the monic form of its inverse, certifies one unit
of each inverse pair.

The sums themselves are never assembled.  enumerate_normalizers lists the
corner units, and normalizer_count counts the sums: a partial bijection
carries the product over its corners of their unit counts.  What classify
reads holds for a sum exactly when it holds for each block: the span of
N(C,D) and of its free part is the span of the corner units, and LBH and
implementation by an idempotent of D fail on a sum exactly when they fail
on one of its blocks, whose sources and targets are all distinct.

The blocks also give the order n <= m, n = m 1_S for a set S of units, that
reconstruction reads ultrafilters from: right multiplication by 1_S keeps the
blocks of m at the units of S and drops the rest, so n <= m exactly when
every block of n is a block of m.  Each block of a normalizer is itself a
normalizer of the span (D <= C), so the minimal elements are the corner
units, and for a corner unit x with source unit w, up(x) is the set of
normalizers whose block at w is x.  up(x) is then an ultrafilter: a strictly
larger proper filter would need a nonzero common lower bound of x and an
element outside up(x), and the only nonzero element below x is x.

Reconstruction (phi_check) works on the scaling orbits of the corner units,
one monic representative each.  Endpoints come from the corner: a minimal x
in C_{v,w} has its partner y with x y = delta_v and y x = delta_w, certified
when x was enumerated, so up(x) runs from w to v.  Composability is the
endpoint match: for minimal u0 and v0 the projection product (dagger u0) u0
v0 (dagger v0) is delta_src(u0) delta_tgt(v0), nonzero exactly when
src(u0) = tgt(v0), and then u0 v0 is again one corner unit, the
representative of the product ultrafilter.  Scaling is bilinear, (c m)(c' m')
= c c' (m m'), so the products of the representatives, each read as a unit
times a representative, give all of Sigma': the quotient by scaling and a
unit-valued scalar table.  Sigma' is a groupoid by theorem (Lawson-Lenz,
Exel), so only the quotient is validated.  The support sets are read off the
blocks: {n : n(gamma) != 0} is the set of normalizers whose block at
src(gamma) carries gamma, the union of up(t delta_gamma) over the units t is
the set whose block there is a multiple of delta_gamma, and the two agree for
every arrow gamma exactly when every corner unit is a single arrow.  The
twist map (t, gamma) -> up(t delta_gamma) carries the product of the total
groupoid onto that of Sigma' exactly when the arrow map is a homomorphism
onto the quotient and delta_a delta_b = omega(a, b) delta_ab in the scalar
table, for every composable pair (a, b) of G.

Order contract of enumerate_normalizers (classify reports the first blocking
corner unit as a witness, so the order shows in reports): zero first, then
each monic corner unit (first nonzero coordinate 1) in lexicographic order of
its coordinates tuple(x.value(p) for p in basis.pivots), each followed by its
scalings lam x with partner lam^-1 y, for lam in ring.units() other than 1.
That is the order of an exhaustive scan of the span restricted to the corner
units.  A flag fails on all scalings of a normalizer or on none, and the
monic form of each block of a monic sum comes before the sum: the two first
differ at the sum's leading pivot, where the block is 0.  So the first
normalizer of the exhaustive scan to fail a flag is a corner unit, and the
witnesses are those of the whole scan.

One scan per corner pair and context.  The span holds its corners
(Basis.corners, split once), and the scan of an opposite pair reads nothing
of C but those two: the batched test builds its systems from the dense rows
of C_{v,w} and C_{w,v}, and the certificate of a one-block candidate seeks
the partner in C_{w,v} alone.  A corner's rows are its reduced echelon rows,
unique to the corner, so the echelon keys of the two corners, cached on
them, fix the certified lists of both.  Spans that share corners, as the
closures, meets and joins of galois and pqc_scan do, share their scans: the
Context keeps them by those keys.  The memo lives on the Context, not in the
module, so it dies with the context: every command builds its own, a traced
pass repeats its counts, and corpus jobs never share one.  It keeps
coefficient dicts, not elements: an element refers back to its context, so
the context would wait for the cycle collector instead of being freed when
the command returns.  The guard still measures every scanned corner,
remembered or not, and the internal checks run on the first scan of a
pair, whose inputs a later one would repeat.

The span answers go the same way, corner by corner (corner_answers), read off
the corners the span holds.  C is the direct sum of its corners, and the
units of C_{v,w} span a subspace N_{v,w} of it, so N(C,D) and its free part
span C exactly when they do on every corner, and the first row of C outside
either is the first, in pivot order, of the corners' first rows outside it.
A unit between distinct units is free, and the free units of C_{v,v} are the
multiples of delta_v, its first row.  For n in C_{w,v}, Delta(n a) sees only
the block of a in C_{v,w}, and only at delta_w, so the kernel of the
faithfulness pairing is the direct sum of the pairings of N_{w,v} against
C_{v,w}; its first vector, the one of the first free row, is the first vector
of the corner whose first free row comes first.  What a corner answers
depends on its rows and those of its opposite corner alone, so the Context
keeps each corner's answers as ints and coefficient dicts under the two
echelon keys, beside the scans.

Counted isotropy corners.  classify scans no isotropy corner R = C_{v,v}
over F_p, p > 2, that is a commutative algebra (closed under the product, as
every corner of a subalgebra is).  Its corner units are the units of R, whose
unit is delta_v.  On a commutative R the Frobenius F(x) = x^p is F_p-linear.
R is a product of local rings with residue fields F_{p^d_i} (Perlis-Walker);
F^dim R kills exactly the radical J, and in each factor F^j fixes a copy of
F_{p^gcd(j, d_i)} (the roots of X^{p^j} - X lift uniquely), so dim ker(F^j -
1) = sum_i gcd(j, d_i), which determines the d_i (Berlekamp).  Then |U(R)| =
p^dim J prod_i (p^d_i - 1), from ranks of powers of one dim R square matrix.
Every residue field has more than two elements, so each x in R is a sum of
two units, x = (x - u) + u for a unit u that avoids x and 0 in every residue
field: the units span R, and its free units are the multiples of delta_v.
Each c delta_g in R is a unit (R is finite-dimensional and holds the inverse
of delta_g), so LBH holds on R exactly when |U(R)| is p - 1 times the number
of arrows g with delta_g in R.  A one-dimensional R is F_p delta_v, with
p - 1 units, taken and counted without its products or its Frobenius matrix.
Where LBH fails, first_unit certifies the candidates in the scan's order and
stops at the first unit to fail a flag, which is the scan's first failure in
R.  A unit blocking implementation by an idempotent carries delta_v and
another arrow, so there is one only where LBH fails, and its search starts at
the candidates led by delta_v, the corner's first row (v is its least
arrow).  Compared by key with the first failures of the scanned corners,
these give the witnesses of the whole scan.  The guard charges a counted
corner dim^4 for its test and count, then each candidate its searches visit.
"""

from collections import Counter
from dataclasses import dataclass
from math import gcd

import numpy as np

from cartan_lab import exactlin
from cartan_lab.errors import GuardExceeded, InputError, InternalCheckError
from cartan_lab.groupoid import Groupoid
from cartan_lab.steinberg import (Basis, Context, El, corner_blocks, full_algebra_basis,
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


def _block_partner(ctx: Context, x: El, v: int, opposite: Basis | None):
    """The y in span(opposite), the corner C_{w,v}, with x y = delta_v, or
    None; y x = delta_w then follows (module docstring).

    With y = sum_j c_j K_j over the rows K_j of opposite, the products x K_j
    lie in C_{v,v}, so the system keeps only the rows of the arrows of vGv:
    one batched convolution builds it, and the partner is one sum of the
    rows, each product reduced."""
    if opposite is None:
        return None
    if len(x.coeffs) == 1:
        y = dagger_closed_form(ctx, x)
        return y if y is not None and opposite.contains(y) else None
    g = ctx.groupoid
    at_v = np.flatnonzero((g.src == v) & (g.tgt == v))
    k = opposite.matrix
    sol = ctx.solve(ctx.conv_single_batch(ctx.vec(x), k)[:, at_v].T,
                    ctx.vec(ctx.delta(v))[at_v])
    return None if sol is None else ctx.el_of_vec(ctx.combine_rows(sol, k))


def is_normalizer(ctx: Context, n: El, c_basis: Basis | None = None):
    """Certificate for n, or None, block by block as in the module docstring.
    Partners are sought inside the span of c_basis (the whole algebra when
    omitted), which must be a D-bimodule, in the corners it holds."""
    if not ctx.ring.is_field:
        raise InputError("normalizer decision needs a field")
    basis = c_basis if c_basis is not None else full_algebra_basis(ctx)
    if c_basis is not None and not c_basis.contains(n):
        raise InputError("candidate lies outside the subalgebra")
    corners = basis.corners   # refuses a span that is no D-bimodule
    blocks = corner_blocks(n)
    if len({v for v, _ in blocks}) < len(blocks) or len({w for _, w in blocks}) < len(blocks):
        return None
    dagger: dict = {}
    for (v, w), x in blocks.items():
        y = _block_partner(ctx, x, v, corners.get((w, v)))
        if y is None:
            return None
        xv, yv = ctx.vec(x), ctx.vec(y)
        if not (np.array_equal(ctx.conv_vec(xv, yv), ctx.vec(ctx.delta(v)))
                and np.array_equal(ctx.conv_vec(yv, xv), ctx.vec(ctx.delta(w)))):
            raise InternalCheckError(f"block partner fails at the corner {(v, w)}")
        dagger.update(y.coeffs)
    return NormalizerCert(n, El(ctx, dagger))


# -- enumeration -------------------------------------------------------------

def _monic_digits(p: int, d: int, start: int = 0):
    """The monic coefficient vectors of length d (first nonzero entry 1) in
    lexicographic order, from the start-th on, in chunks of BATCH_CHUNK rows.
    The vectors with t entries after their leading 1 form one run, from index
    (p^t - 1) / (p - 1) on, t = 0 first; those t entries are the base-p
    digits of the offset into the run.  A chunk counts its indices from the
    start of its first run, so they fit int64 where p^d does not."""
    runs = [(p ** t - 1) // (p - 1) for t in range(d + 1)]
    for lo in range(start, runs[-1], BATCH_CHUNK):
        hi = min(lo + BATCH_CHUNK, runs[-1])
        first = max(t for t, r in enumerate(runs) if r <= lo)
        bounds = np.array([r - runs[first] for r in runs[first:] if r < hi], dtype=np.int64)
        index = np.arange(lo - runs[first], hi - runs[first])
        t = np.searchsorted(bounds, index, side="right") - 1
        rest = index - bounds[t]
        digits = np.zeros((len(index), d), dtype=np.int64)
        for j in range(d - 1, -1, -1):
            digits[:, j] = rest % p
            rest //= p
        digits[np.arange(len(index)), d - 1 - first - t] = 1
        yield digits


def _batched_mask(ctx: Context, corner: Basis, opposite: Basis):
    """The monic candidates of span(corner) (first nonzero coefficient 1;
    scalings are recovered afterwards) and a boolean mask over them: does the
    candidate admit a partner in span(opposite).  Returns (candidates, mask).

    For n in C_{v,w} and k in C_{w,v}, n delta_u k is n k at u = w and 0 at
    every other unit (the cocycle is normalized), and k delta_u n is k n at
    u = v, so n D k and k D n lie in D exactly when n k and k n vanish off
    the units: with n k n = n, the rows of the system."""
    p = ctx.p
    off = np.array(list(ctx.groupoid.off_units()), dtype=np.int64)
    dim, offdim = ctx.dim, len(off)
    cands, mask = [], []
    for digits in _monic_digits(p, corner.dim):
        chunk = digits @ corner.matrix % p
        m = np.zeros((len(chunk), dim + 2 * offdim, opposite.dim), dtype=np.int64)
        for j, k in enumerate(opposite.matrix):
            nk = ctx.conv_batch_single(chunk, k)
            m[:, :dim, j] = ctx.conv_batch(nk, chunk)
            m[:, dim:dim + offdim, j] = nk[:, off]
            m[:, dim + offdim:, j] = ctx.conv_single_batch(k, chunk)[:, off]
        rhs = np.zeros(m.shape[:2], dtype=np.int64)
        rhs[:, :dim] = chunk
        cands.append(chunk)
        mask.append(exactlin.batch_solvable_mod_p(m, rhs, p))
    return np.concatenate(cands), np.concatenate(mask)


def _monic_mate(x: El, y: El) -> tuple:
    """For a corner unit x with partner y, the monic form of y with its
    partner: (y / c, c x) for c the first coordinate of y, its value at
    min(supp y), which the reduced echelon rows make the leading pivot."""
    c = y.coeffs[min(y.coeffs)]
    return y.scale(x.ctx.ring.try_inv(c)), x.scale(c)


def _scanned(basis: Basis) -> list:
    """The corners the scan visits, in sorted order: the first of each
    opposite pair of nonzero corners, isotropy corners included."""
    corners = basis.corners
    return [(v, w) for v, w in sorted(corners) if v <= w and (w, v) in corners]


def _corner_units(ctx: Context, basis: Basis, skip=()) -> list:
    """The normalizers of span(basis) that lie in one corner, leaving out the
    isotropy corners in skip, as a list of scaled: each lists (lam x,
    lam^-1 y) as coefficient dicts for lam in ring.units(), with x monic in
    C_{v,w} and y its partner in C_{w,v}, so scaled[0] is (x, y).  Corners
    come in sorted order, units in candidate order.

    A corner runs the batched test against its opposite corner alone, and
    its survivors are certified.  By the partner map (module docstring) only
    the first corner of each opposite pair is scanned; the units of the other
    are the mates of its units.  In an isotropy corner a survivor that is the
    mate of an earlier one is not certified again, and a mate the batched
    test did not pass raises InternalCheckError.  Each pair is scanned once
    per context, which keeps the (x, y) coefficient dicts of both its
    corners under their echelon keys (module docstring)."""
    r = ctx.ring
    scalings = [(lam, r.try_inv(lam)) for lam in r.units()]
    corners = basis.corners
    found: dict = {}
    for v, w in _scanned(basis):
        if (v, w) in skip:
            continue
        opposite = corners[(w, v)]
        key = (corners[(v, w)].key(), opposite.key())
        if key in ctx._corner_scans:
            found[(v, w)], found[(w, v)] = ctx._corner_scans[key]
            continue
        cands, mask = _batched_mask(ctx, corners[(v, w)], opposite)
        pairs, mates = [], {}
        for i in np.nonzero(mask)[0]:
            x = ctx.el_of_vec(cands[i])
            if x in mates:
                pairs.append(mates.pop(x))
                continue
            cert = is_normalizer(ctx, x, basis)
            if cert is None:
                raise InternalCheckError("batched prefilter and exact solve disagree")
            pairs.append((x, cert.dagger))
            mate = _monic_mate(x, cert.dagger)
            if mate[0] != x:
                mates[mate[0]] = mate
        found[(v, w)] = [(x.coeffs, y.coeffs) for x, y in pairs]
        if v != w:
            found[(w, v)] = [(x.coeffs, y.coeffs) for x, y in sorted(
                mates.values(), key=lambda xy: tuple(xy[0].value(piv) for piv in opposite.pivots))]
        elif mates:
            raise InternalCheckError("an isotropy mate did not pass the batched prefilter")
        ctx._corner_scans[key] = found[(v, w)], found[(w, v)]
    return [[({a: r.mul(lam, c) for a, c in x.items()}, {a: r.mul(inv, c) for a, c in y.items()})
             for lam, inv in scalings]
            for _, pairs in sorted(found.items()) for x, y in pairs]


def check_scan_guard(ctx: Context, basis: Basis, guard: int, counted=()) -> int:
    """The cost of the span's scan, p^dim per scanned corner but dim^4 per
    isotropy corner in counted (its test and count: dim^2 products, dim matrix
    products and nullspaces), refused past guard before the work it bounds, as
    is a normalizer count that would take more than guard states, 2^units."""
    candidates = sum(basis.corners[vw].dim ** 4 if vw in counted else ctx.p ** basis.corners[vw].dim
                     for vw in _scanned(basis))
    if candidates > guard:
        raise GuardExceeded("normalizer scan candidates", candidates, guard)
    states = 2 ** ctx.groupoid.n_units
    if states > guard:
        raise GuardExceeded("normalizer count states", states, guard)
    return candidates


def enumerate_normalizers(ctx: Context, c_basis: Basis | None = None,
                          guard: int = SCAN_GUARD, skip=()):
    """Zero and every corner unit of the span of c_basis, as certified pairs,
    in the order of the module docstring, but none of the isotropy corners
    (v, v) in skip, which classify counts instead; normalizer_count counts the
    normalizers they sum to.  The span must be a D-bimodule.  The guard is
    that of check_scan_guard, with skip as its counted corners."""
    if not ctx.ring.is_field or not ctx.ring.is_finite:
        raise InputError("normalizer enumeration needs a finite field")
    basis = c_basis if c_basis is not None else full_algebra_basis(ctx)
    certs = [NormalizerCert(ctx.zero(), ctx.zero())]
    if basis.dim == 0:
        return certs
    check_scan_guard(ctx, basis, guard, skip)
    units = sorted(_corner_units(ctx, basis, skip),
                   key=lambda scaled: tuple(scaled[0][0].get(piv, 0) for piv in basis.pivots))
    return certs + [NormalizerCert(El(ctx, n), El(ctx, k)) for scaled in units for n, k in scaled]


def unit_counts(ctx: Context, certs) -> Counter:
    """The number of nonzero certs in each corner, keyed (v, w) as in
    Basis.corners; a corner unit's arrows share source and target."""
    g = ctx.groupoid
    return Counter((int(g.tgt[a]), int(g.src[a]))
                   for a in (min(c.n.coeffs) for c in certs if not c.n.is_zero()))


def normalizer_count(counts: dict) -> int:
    """The number of nonzero normalizers when corner (v, w) has counts[(v, w)]
    units: the sum over nonempty partial bijections of the units of the
    product of the unit counts of the corners used, by a DP over source units
    whose state is the set of targets used so far."""
    targets: dict = {}
    for (v, w), count in counts.items():
        targets.setdefault(w, []).append((1 << v, count))
    ways = {0: 1}
    for row in targets.values():
        grown = dict(ways)
        for used, n in ways.items():
            for bit, count in row:
                if not used & bit:
                    grown[used | bit] = grown.get(used | bit, 0) + n * count
        ways = grown
    return sum(ways.values()) - 1


# -- span answers, corner by corner ------------------------------------------

def corner_answers(ctx: Context, basis: Basis, certs, counted) -> dict:
    """What classify reads off the span N_{v,w} of the units of each corner
    C_{v,w} (module docstring), as {(v, w): (span, free, kernel)}.  span is
    (dim N_{v,w}, the pivot of the first row of C_{v,w} outside it, or None),
    free the same for the free units, and kernel (the pivot of the first free
    row, the coefficients of the first kernel vector) of the pairing
    (n, c) -> (n c)(w) of N_{w,v} against C_{v,w}, or None when the pairing
    is nondegenerate.  certs are enumerate_normalizers' of the span, the
    counted corners left out; their units span them.  Each corner's answers
    are kept on the Context under its echelon key and its opposite's."""
    g = ctx.groupoid
    memo = ctx._corner_answers
    corners = basis.corners
    keys = {(v, w): (corner.key(), corners[(w, v)].key() if (w, v) in corners else None)
            for (v, w), corner in corners.items()}
    missing = [vw for vw in corners if keys[vw] not in memo]
    if missing:
        monic: dict = {}
        for cert in certs[1:]:
            x = cert.n.coeffs
            a = min(x)
            if x[a] == 1:
                monic.setdefault((int(g.tgt[a]), int(g.src[a])), []).append(x)
        spans: dict = {}

        def unit_span(vw) -> Basis:
            if vw not in spans:
                spans[vw] = corners[vw] if vw in counted else Basis(ctx)
                for x in monic.get(vw, ()):
                    if spans[vw].dim == corners[vw].dim:
                        break
                    spans[vw].extend(El(ctx, x))
            return spans[vw]

        for v, w in missing:
            corner, span = corners[(v, w)], unit_span((v, w))
            out = next((piv for piv, row in zip(corner.pivots, corner.rows)
                        if not span.contains(row)), None)
            # a unit between distinct units is free; an isotropy corner's free
            # units are the multiples of delta_v, its first row
            free = ((span.dim, out) if v != w
                    else (1, corner.pivots[1] if corner.dim > 1 else None))
            pairs = unit_span((w, v)).rows if (w, v) in corners else []
            mat = np.array([[(n * c).value(w) for c in corner.rows] for n in pairs],
                           dtype=np.int64).reshape(len(pairs), corner.dim)
            kern = ctx.nullspace(mat)
            kernel = None
            if len(kern):
                kernel = (corner.pivots[np.flatnonzero(kern[0])[-1]],
                          ctx.combination(kern[0], corner.rows).coeffs)
            memo[keys[(v, w)]] = ((span.dim, out), free, kernel)
    return {vw: memo[keys[vw]] for vw in corners}


# -- counted isotropy corners ------------------------------------------------

def counted_corners(ctx: Context, basis: Basis, guard: int = SCAN_GUARD) -> list:
    """The isotropy corners (v, v) whose units classify counts instead of
    scanning (module docstring): over F_p with p > 2, those whose rows
    commute and whose products stay in the corner.  Before it tests one, it
    refuses a span past the guard with every isotropy corner counted."""
    if ctx.p == 2:
        return []
    isotropy = [(v, w) for v, w in sorted(basis.corners) if v == w]
    check_scan_guard(ctx, basis, guard, isotropy)
    return [vw for vw in isotropy if _commutative(ctx, basis.corners[vw])]


def _commutative(ctx: Context, corner: Basis) -> bool:
    """Do the rows commute, with their products in the span?"""
    rows = corner.matrix
    return corner.dim == 1 or all(   # F_p delta_v, without a product
        np.array_equal(prods := ctx.conv_single_batch(row, rows), ctx.conv_batch_single(rows, row))
        and np.array_equal(exactlin.matmul_mod_p(prods[:, corner.pivots], rows, ctx.p), prods)
        for row in rows)


def _totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def frobenius_unit_count(ctx: Context, corner: Basis) -> int:
    """The number of units of a counted corner R = span(corner), p^dim J
    prod_i (p^d_i - 1), with dim J and the residue degrees d_i read off the
    matrix of F(x) = x^p on the rows (module docstring)."""
    p, d = ctx.p, corner.dim
    if d == 1:   # F_p delta_v
        return p - 1
    # row-wise x^p by repeated squaring; column i of frob holds the
    # coordinates of row_i^p, its values at the pivots
    power, square, e = None, corner.matrix, p
    while e:
        if e & 1:
            power = square if power is None else ctx.conv_batch(power, square)
        e >>= 1
        if e:
            square = ctx.conv_batch(square, square)
    frob = power[:, corner.pivots].T
    powers = [np.eye(d, dtype=np.int64)]
    for _ in range(d):
        powers.append(exactlin.matmul_mod_p(powers[-1], frob, p))
    radical = len(ctx.nullspace(powers[d]))
    top = d - radical
    # dim ker(F^j - 1) = sum_i gcd(j, d_i) = sum over e | j of phi(e) times
    # the number of d_i that e divides; invert for j = 1, 2, ..., then peel
    # off the multiples to count the d_i equal to k
    divisible: dict = {}
    for j in range(1, top + 1):
        fixed = len(ctx.nullspace(powers[j] - powers[0]))
        divisible[j] = (fixed - sum(_totient(e) * divisible[e] for e in range(1, j)
                                    if j % e == 0)) // _totient(j)
    degrees: dict = {}
    for k in range(top, 0, -1):
        degrees[k] = divisible[k] - sum(degrees[m] for m in range(2 * k, top + 1, k))
    if sum(k * c for k, c in degrees.items()) != top:
        raise InternalCheckError("the residue degrees do not add up to dim R/J")
    count = p ** radical
    for k, c in degrees.items():
        count *= (p ** k - 1) ** c
    return count


def first_unit(ctx: Context, basis: Basis, v: int, accept, charge,
               led_by_delta: bool = False) -> El | None:
    """The first monic candidate x of the isotropy corner C_{v,v}, in the
    scan's order, with accept(x) that is_normalizer certifies, or None.
    Candidates are made a chunk at a time and the search stops at x, calling
    charge() on each one it visits.  With led_by_delta it starts at the
    candidates led by delta_v, the corner's first row (v is its least
    arrow): those with a nonzero coordinate there, last in the order."""
    corner = basis.corners[(v, v)]
    p, d = ctx.p, corner.dim
    start = (p ** (d - 1) - 1) // (p - 1) if led_by_delta else 0
    for digits in _monic_digits(p, d, start):
        for vec in digits @ corner.matrix % p:
            charge()
            x = ctx.el_of_vec(vec)
            if accept(x) and is_normalizer(ctx, x, basis) is not None:
                return x
    return None


# -- ultrafilters and reconstruction -----------------------------------------

def orbit_tables(ctx: Context, certs, guard: int = SCAN_GUARD):
    """Sigma' on the orbit level: the monic corner units among certs, the unit
    deltas first, and the rest by key, represent the scaling orbits.  Scaling
    is bilinear, (c m)(c' m') = c c' (m m'), so with m_a m_b = scalar[a, b]
    m_comp[a, b] the quotient by scaling and scalar give the whole product of
    Sigma'.  Returns (representatives, lookup, quotient, scalar)."""
    g = ctx.groupoid
    units = ctx.unit_deltas()
    reps = sorted((c for c in certs if c.n.coeffs and c.n.coeffs[min(c.n.coeffs)] == 1),
                  key=lambda c: (c.n not in units, c.n.key()))
    if [c.n for c in reps[:g.n_units]] != units:
        raise InternalCheckError("a unit delta is not a minimal normalizer")
    m = len(reps)
    if m * m > guard:
        raise GuardExceeded("reconstruction orbit pairs", m * m, guard)
    vecs = np.array([ctx.vec(c.n) for c in reps])
    index = {v.tobytes(): i for i, v in enumerate(vecs)}

    def lookup(rows: np.ndarray):
        """(orbit, c) per row: the row is c times the representative of its
        monic form, c its first nonzero coordinate; orbit -1 where the monic
        form is no representative (a zero row included)."""
        lead = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]
        inverse = {c: pow(c, ctx.p - 2, ctx.p) for c in set(lead.tolist())}
        monic = rows * np.array([inverse[c] for c in lead.tolist()])[:, None] % ctx.p
        return np.array([index.get(v.tobytes(), -1) for v in monic], dtype=np.int64), lead

    def found(rows):
        orbit, lead = lookup(rows)
        if (orbit < 0).any():
            raise InternalCheckError("product or dagger of minimal elements not minimal")
        return orbit, lead

    # a corner unit's arrows share source and target
    first = [min(c.n.coeffs) for c in reps]
    src, tgt = g.src[first], g.tgt[first]
    comp = np.full((m, m), -1, dtype=np.int64)
    scalar = np.zeros((m, m), dtype=np.int64)
    for a in range(m):
        bs = np.flatnonzero(tgt == src[a])
        comp[a, bs], scalar[a, bs] = found(ctx.conv_single_batch(vecs[a], vecs[bs]))
    inv, _ = found(np.array([ctx.vec(c.dagger) for c in reps]))
    quotient = Groupoid(g.n_units, src, tgt, comp, inv, label=f"quotient({ctx.label})")
    return [c.n for c in reps], lookup, quotient, scalar


def _carries(f: np.ndarray, comp: np.ndarray, image: np.ndarray) -> bool:
    """Does the arrow map f carry the composition table comp onto image:
    f(a) f(b) is defined exactly when ab is, and then equals f(ab)?"""
    return np.array_equal(np.where(comp >= 0, f[comp], -1), image[np.ix_(f, f)])


def phi_check(ctx: Context, guard: int = SCAN_GUARD) -> dict:
    """Reconstruction report: the ultrafilter groupoid Sigma', its quotient by
    unit scaling, the arrow map phi: G -> quotient and the twist map
    psi: Sigma -> Sigma', (t, gamma) -> t delta_gamma."""
    g = ctx.groupoid
    certs = enumerate_normalizers(ctx, None, guard)
    minimals = [c.n for c in certs if not c.n.is_zero()]
    runits = ctx.ring.units()
    report = {
        "normalizer_count": normalizer_count(unit_counts(ctx, certs)),
        "ultrafilter_count": len(minimals),
        "expected_total_size": len(runits) * g.num_arrows,
        "total_size_matches": len(minimals) == len(runits) * g.num_arrows,
    }
    reps, lookup, quotient, scalar = orbit_tables(ctx, certs, guard)
    orbit, _ = lookup(np.array([ctx.vec(n) for n in minimals]))
    report["scaling_closed"] = bool((orbit >= 0).all() and (
        np.bincount(orbit, minlength=len(reps)) == len(runits)).all())
    if not report["scaling_closed"]:
        return report
    report["orbit_count"] = len(reps)
    # every product of minimals is a scaling of a representative product, and
    # orbit_tables found all of those, so the product of orbits is defined
    report["quotient_well_defined"] = True
    report["quotient_valid"], msg = quotient.validate()
    if not report["quotient_valid"]:
        report["quotient_violation"] = msg
        return report
    # arrow level: gamma -> orbit of up(delta_gamma)
    phi, _ = lookup(np.eye(g.num_arrows, dtype=np.int64))
    report["arrow_map_total"] = bool((phi >= 0).all())
    if not report["arrow_map_total"]:
        return report
    report["arrow_map_bijective"] = len(set(phi.tolist())) == len(reps) == g.num_arrows
    report["arrow_map_units"] = np.array_equal(phi[:g.n_units], np.arange(g.n_units))
    report["arrow_map_homomorphism"] = _carries(phi, g.comp, quotient.comp)
    report["groupoid_isomorphic"] = (report["arrow_map_bijective"] and report["arrow_map_units"]
                                     and report["arrow_map_homomorphism"])
    # {n : n(gamma) != 0} is the union of up(t delta_gamma) over the units t
    # exactly when every block carrying gamma is a multiple of delta_gamma
    report["support_sets_match"] = all(len(x.coeffs) == 1 for x in reps)
    # twist level: psi(t, gamma) = t delta_gamma, and both products are
    # bilinear, so psi carries the total groupoid's product onto that of
    # Sigma' exactly when phi does on orbits and delta_a delta_b =
    # omega(a, b) delta_ab, read from the cocycle's own table
    report["twist_squares_match"] = report["arrow_map_homomorphism"] and all(
        scalar[phi[a], phi[b]] == ctx.cocycle.omega(a, b) for a, b in g.composable_pairs())
    report["reconstructed"] = (report["total_size_matches"] and report["groupoid_isomorphic"]
                               and report["support_sets_match"]
                               and report["twist_squares_match"])
    return report
