"""Classification of intermediate inclusions D <= C <= A.

D is always the span of the unit deltas.  classify computes the full flag set
for one subalgebra C; galois matches wide subgroupoids against intermediate
subalgebras; pqc_scan hunts for singly generated subalgebras that break the
classification; the two counterexample builders construct the known
obstructions; bimodule_spectral is the bimodule closure test.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import GuardExceeded, InputError, InternalCheckError
from .steinberg import (Basis, Context, El, algebra_closure, corner_blocks, full_algebra_basis,
                        intersect_spans, is_bisection, span_closure)
from .normalizers import (SCAN_GUARD, check_scan_guard, corner_answers, counted_corners,
                          enumerate_normalizers, first_unit, frobenius_unit_count,
                          normalizer_count, unit_counts)

QC_VERDICTS = ("AQP", "ACP", "ADP")

FLAG_NAMES = ("WT", "regular", "delta_faithful", "delta_idempotent_implemented",
              "maximal_abelian", "free_span", "LBH")


@dataclass
class InclusionReport:
    ctx: Context
    c_basis: Basis | None
    flags: dict
    witnesses: dict
    dims: dict
    verdict: str
    notes: list = field(default_factory=list)

    @property
    def quasi_cartan(self) -> bool:
        return self.verdict in QC_VERDICTS

    def to_json(self) -> dict:
        wit = {}
        for k, v in self.witnesses.items():
            if isinstance(v, El):
                wit[k] = v.to_json()
            elif isinstance(v, (tuple, list)):
                wit[k] = [x.to_json() if isinstance(x, El) else x for x in v]
            else:
                wit[k] = v
        return {
            "context": self.ctx.canonical_hash(),
            "c_basis": self.c_basis.to_json() if self.c_basis is not None else None,
            "flags": dict(self.flags),
            "witnesses": wit,
            "dims": dict(self.dims),
            "verdict": self.verdict,
            "notes": list(self.notes),
        }


def diagonal_basis(ctx: Context) -> Basis:
    return Basis.coordinate(ctx, ctx.groupoid.units())


def delta_arrows(basis: Basis) -> set:
    """The arrows a with delta_a in the span: the pivots whose reduced
    echelon row is delta_a.  For a unit v of a D-bimodule that row is the
    first row of C_{v,v}, v being the least arrow of vGv."""
    return {piv for piv, row in zip(basis.pivots, basis.coeffs) if len(row) == 1}


def _implemented_for(n: El, ctx: Context):
    """Is Delta(n) = en = ne = ene solvable with an idempotent e of D?

    Any solution must be 1 on the unit support of n and 0 on the endpoints of
    its moving arrows, so the indicator of the unit support is the minimal
    candidate and existence reduces to an overlap test.  Returns the blocking
    unit or None.
    """
    g = ctx.groupoid
    plus = set()
    ends = set()
    for a, v in n.coeffs.items():
        if g.is_unit(a):
            plus.add(a)
        else:
            ends.add(int(g.src[a]))
            ends.add(int(g.tgt[a]))
    clash = plus & ends
    return min(clash) if clash else None


def classify(ctx: Context, c_basis: Basis | None = None,
             guard: int = SCAN_GUARD) -> InclusionReport:
    """All classification flags for the inclusion D <= span(c_basis) <= A.

    Flags that need the normalizer enumeration are marked None (skipped) over
    rings where the scan cannot run; the verdict is then "undetermined" unless
    an already-computed flag settles it.  A scan past the guard is refused
    with GuardExceeded, not skipped: an unscanned C settles no verdict.
    """
    r = ctx.ring
    g = ctx.groupoid
    n_units = g.n_units
    flags: dict = {k: None for k in FLAG_NAMES}
    wits: dict = {}
    notes: list = []

    if not r.is_field and r.modulus > guard:
        raise GuardExceeded("Z/m residue scan", r.modulus, guard)
    ok, wt_wit = r.wt_check()
    flags["WT"] = ok
    if not ok:
        wits["WT"] = list(wt_wit)

    if not r.is_field:
        if c_basis is not None:
            raise InputError("subalgebra flags need field coefficients")
        notes.append("span flags skipped: needs field coefficients")
        dims = {"C": ctx.dim, "units": n_units}
        verdict = "not-quasi-Cartan" if flags["WT"] is False else "undetermined"
        return InclusionReport(ctx, None, flags, wits, dims, verdict, notes)

    basis = c_basis.copy() if c_basis is not None else full_algebra_basis(ctx)
    deltas = delta_arrows(basis)
    if not set(g.units()) <= deltas:
        raise InputError("C must contain every unit delta")
    dims: dict = {"C": basis.dim, "units": n_units}

    # the commutant of D inside C is the isotropy-supported part of C
    commutant = intersect_spans(basis, Basis.coordinate(ctx, np.flatnonzero(g.src == g.tgt)))
    dims["commutant"] = commutant.dim
    flags["maximal_abelian"] = commutant.dim == n_units
    if not flags["maximal_abelian"]:
        wits["maximal_abelian"] = next(
            row for row in commutant.rows
            if any(not g.is_unit(a) for a in row.coeffs))

    if r.is_finite:
        # each flag below is decided corner by corner (normalizers docstring):
        # the counted isotropy corners are not scanned, and the guard is
        # charged their counting and the candidates their witness searches visit
        counted = counted_corners(ctx, basis, guard)
        spent = check_scan_guard(ctx, basis, guard, counted)
        certs = enumerate_normalizers(ctx, basis, guard, skip=counted)
        units = certs[1:]
        counts = unit_counts(ctx, certs)
        for vw in counted:
            counts[vw] = frobenius_unit_count(ctx, basis.corners[vw])
        dims["normalizers"] = normalizer_count(counts)

        # C and the spans of N(C,D) and of its free part are the direct sums
        # of their corners, so a span is C when it is on every corner, and
        # the first row of C outside it is the first of the corners' ones
        answers = corner_answers(ctx, basis, certs, counted).values()
        row_at = dict(zip(basis.pivots, basis.coeffs))

        def span_flag(flag: str, dim: str, i: int) -> None:
            dims[dim] = sum(a[i][0] for a in answers)
            outside = [a[i][1] for a in answers if a[i][1] is not None]
            flags[flag] = not outside
            if outside:
                wits[flag] = El(ctx, row_at[min(outside)])

        span_flag("regular", "normalizer_span", 0)

        # faithful: Delta(n a) = 0 for every normalizer n forces a = 0.  For n
        # in C_{w,v}, Delta(n a) is (n a_{v,w})(w) delta_w, so the kernel is
        # the direct sum of the corners' ones, and its first vector, one per
        # free row in pivot order, is that of the corner with the first free row
        kernels = [a[2] for a in answers if a[2] is not None]
        flags["delta_faithful"] = not kernels
        if kernels:
            wits["delta_faithful"] = El(ctx, min(kernels, key=lambda k: k[0])[1])

        # a counted corner's units are its c delta_g exactly when LBH holds
        # on it, and only where it fails can a unit fail a flag
        mixed = [v for v, _ in counted if counts[(v, v)] != (r.modulus - 1) * sum(
            g.src[a] == g.tgt[a] == v for a in deltas)]

        def charge():
            nonlocal spent
            spent += 1
            if spent > guard:
                raise GuardExceeded("normalizer scan candidates", spent, guard)

        def first_failure(fails, led_by_delta):
            """The first corner unit of the scan to fail: the first in certs
            or in the search of a counted corner that LBH fails on."""
            found = [next((cert.n for cert in units if fails(cert.n)), None)]
            found += [first_unit(ctx, basis, v, fails, charge, led_by_delta) for v in mixed]
            return min((n for n in found if n is not None), default=None,
                       key=lambda n: tuple(n.value(piv) for piv in basis.pivots))

        blocking = first_failure(lambda n: _implemented_for(n, ctx) is not None, True)
        flags["delta_idempotent_implemented"] = blocking is None
        if blocking is not None:
            wits["delta_idempotent_implemented"] = (blocking, _implemented_for(blocking, ctx))

        span_flag("free_span", "free_span", 1)

        lbh = first_failure(lambda n: not is_bisection(g, n.coeffs), False)
        flags["LBH"] = lbh is None
        if lbh is not None:
            wits["LBH"] = lbh
    else:
        notes.append("normalizer scan skipped: needs a finite field")

    core = [flags[k] for k in ("WT", "regular", "delta_faithful",
                               "delta_idempotent_implemented")]
    if any(v is False for v in core):
        verdict = "not-quasi-Cartan"
    elif all(v is True for v in core):
        if flags["free_span"]:
            verdict = "ADP"
        elif flags["maximal_abelian"]:
            verdict = "ACP"
        else:
            verdict = "AQP"
    else:
        verdict = "undetermined"
    return InclusionReport(ctx, basis, flags, wits, dims, verdict, notes)


# -- the wide-subgroupoid correspondence -------------------------------------

def subgroupoid_algebra(ctx: Context, members) -> Basis:
    return Basis.coordinate(ctx, members)


def union_support(basis: Basis) -> frozenset:
    return frozenset().union(*basis.coeffs)


def _generator_arrows(ctx: Context, guard: int) -> list:
    """The off-unit arrows, once the generator scan over them is allowed."""
    if not (ctx.ring.is_field and ctx.ring.is_finite):
        raise InputError("generator scan needs a finite field")
    offs = list(ctx.groupoid.off_units())
    total = ctx.p ** len(offs)
    if total > guard:
        raise GuardExceeded("generator scan candidates", total, guard)
    return offs


def monic_off_generators(ctx: Context, guard: int = SCAN_GUARD):
    """Zero plus every moving-part vector with leading coefficient 1.

    algebra_closure(D + {c}) only sees c through its moving part, and scaling
    a generator by a unit leaves the closure alone, so these cover every
    singly generated intermediate subalgebra.
    """
    offs = _generator_arrows(ctx, guard)
    p = ctx.p
    yield ctx.zero()
    for lead in range(len(offs)):
        head = offs[lead]
        tail = offs[lead + 1:]
        for rest in np.ndindex(*([p] * len(tail))):
            coeffs = {head: 1}
            for a, v in zip(tail, rest):
                if v:
                    coeffs[a] = int(v)
            yield ctx.element(coeffs)


def singly_generated_closures(ctx: Context, guard: int = SCAN_GUARD):
    """The distinct closures alg(D + {gen}) over monic_off_generators, as
    {key: (closure, first generator)} in first-seen order, and the number of
    generators scanned.

    On a principal groupoid a closure depends only on its generator's
    support (algebra_closure), so the 2^N supports of the N off-unit arrows
    are walked instead of the (p^N - 1)/(p - 1) + 1 generators, in the order
    of their indicators among the generators.  The indicator of a support T
    has T's lead and is 1 wherever a generator with support T is nonzero, so
    it comes first among them, and it is the first generator of its
    closure."""
    g = ctx.groupoid
    if not g.is_principal():
        closures: dict = {}
        scanned = 0
        for gen in monic_off_generators(ctx, guard):
            scanned += 1
            c = diagonal_basis(ctx) if gen.is_zero() else algebra_closure(ctx, [gen])
            closures.setdefault(c.key(), (c, gen))
        return closures, scanned
    offs = _generator_arrows(ctx, guard)
    first: dict = {g.compose_closure(g.units()): []}
    for lead, head in enumerate(offs):
        tail = offs[lead + 1:]
        for bits in itertools.product((0, 1), repeat=len(tail)):
            support = [head] + [a for a, bit in zip(tail, bits) if bit]
            first.setdefault(g.compose_closure([*g.units(), *support]), support)
    closures = {}
    for arrows, support in first.items():
        c = Basis.coordinate(ctx, arrows)
        closures[c.key()] = (c, ctx.indicator(support))
    return closures, (ctx.p ** len(offs) - 1) // (ctx.p - 1) + 1


@dataclass
class LatticeReport:
    ctx: Context
    wides: list
    algebras: list
    wide_of_algebra: list
    algebra_of_wide: list
    mutually_inverse: bool
    order_isomorphism: bool
    meet_matches: bool
    join_matches: bool
    witnesses: list = field(default_factory=list)

    @property
    def verdict(self) -> str:
        ok = (self.mutually_inverse and self.order_isomorphism
              and self.meet_matches and self.join_matches
              and len(self.wides) == len(self.algebras))
        return "match" if ok else "mismatch"

    def to_json(self) -> dict:
        return {
            "context": self.ctx.canonical_hash(),
            "wide_subgroupoids": [sorted(h) for h in self.wides],
            "intermediate_count": len(self.algebras),
            "algebra_dims": [b.dim for b in self.algebras],
            "wide_of_algebra": list(self.wide_of_algebra),
            "algebra_of_wide": list(self.algebra_of_wide),
            "mutually_inverse": self.mutually_inverse,
            "order_isomorphism": self.order_isomorphism,
            "meet_matches": self.meet_matches,
            "join_matches": self.join_matches,
            "witnesses": [str(w) for w in self.witnesses],
            "verdict": self.verdict,
            "scope": "singly-generated plus lattice saturation",
        }


def galois(ctx: Context, guard: int = SCAN_GUARD) -> LatticeReport:
    """Match wide subgroupoids H <-> intermediate subalgebras C.

    The algebra side is the singly generated net, saturated under meet
    spn N(C1 ^ C2, D) and join alg(C1 u C2), together with the image of every
    wide subgroupoid.  Both directions of the correspondence and the lattice
    operations are checked element by element.
    """
    if not (ctx.ring.is_field and ctx.ring.is_finite):
        raise InputError("galois needs a finite field")
    g = ctx.groupoid
    wides = [frozenset(h) for h in g.wide_subgroupoids()]
    witnesses: list = []

    algebras: dict = {}
    classified: set = set()
    lattice_ops: dict = {}

    def admit(basis: Basis) -> bool:
        """Classify a span the first time its key comes up; True when it
        is quasi-Cartan and so joins the algebras."""
        k = basis.key()
        if k in classified:
            return False
        classified.add(k)
        if not classify(ctx, basis, guard).quasi_cartan:
            return False
        algebras[k] = basis
        return True

    def meet_join(c1: Basis, c2: Basis):
        """spn N(C1 ^ C2, D) and alg(C1 u C2); both are symmetric in the
        pair, so each unordered pair is computed once."""
        k = frozenset((c1.key(), c2.key()))
        if k not in lattice_ops:
            certs = enumerate_normalizers(ctx, intersect_spans(c1, c2), guard)
            lattice_ops[k] = (span_closure(ctx, [cert.n for cert in certs]),
                              algebra_closure(ctx, c1.rows + c2.rows))
        return lattice_ops[k]

    for c, _ in singly_generated_closures(ctx, guard)[0].values():
        admit(c)

    for h in wides:
        admit(subgroupoid_algebra(ctx, h))

    changed = True
    while changed:
        changed = False
        current = list(algebras.values())
        for i, c1 in enumerate(current):
            for c2 in current[i + 1:]:
                for c in meet_join(c1, c2):
                    if admit(c):
                        changed = True

    keys = sorted(algebras)
    alg_list = [algebras[k] for k in keys]
    wide_index = {h: i for i, h in enumerate(wides)}

    mutually_inverse = True
    wide_of_algebra = []
    for basis in alg_list:
        h = union_support(basis)
        if not g.is_wide_subgroupoid(h):
            mutually_inverse = False
            witnesses.append(("support not a wide subgroupoid", sorted(h)))
            wide_of_algebra.append(None)
            continue
        wi = wide_index.get(h)
        if wi is None:
            mutually_inverse = False
            witnesses.append(("support missing from the enumeration", sorted(h)))
            wide_of_algebra.append(None)
            continue
        wide_of_algebra.append(wi)
        back = subgroupoid_algebra(ctx, h)
        if back.key() != basis.key():
            mutually_inverse = False
            witnesses.append(("A(G_C) differs from C", sorted(h)))

    algebra_of_wide = []
    alg_key_index = {b.key(): i for i, b in enumerate(alg_list)}
    for h in wides:
        ah = subgroupoid_algebra(ctx, h)
        ai = alg_key_index.get(ah.key())
        if ai is None:
            mutually_inverse = False
            witnesses.append(("A(H) not admitted as quasi-Cartan", sorted(h)))
        algebra_of_wide.append(ai)
        if union_support(ah) != h:
            mutually_inverse = False
            witnesses.append(("G_{A(H)} differs from H", sorted(h)))

    def contained(b1: Basis, b2: Basis) -> bool:
        return all(b2.contains(row) for row in b1.rows)

    order_isomorphism = True
    for i, bi in enumerate(alg_list):
        for j, bj in enumerate(alg_list):
            if wide_of_algebra[i] is None or wide_of_algebra[j] is None:
                continue
            hi, hj = wides[wide_of_algebra[i]], wides[wide_of_algebra[j]]
            if contained(bi, bj) != (hi <= hj):
                order_isomorphism = False
                witnesses.append(("order mismatch", i, j))

    meet_matches = True
    join_matches = True
    for i, bi in enumerate(alg_list):
        for j, bj in enumerate(alg_list):
            if wide_of_algebra[i] is None or wide_of_algebra[j] is None:
                continue
            hi, hj = wides[wide_of_algebra[i]], wides[wide_of_algebra[j]]
            meet, join = meet_join(bi, bj)
            if meet.key() != subgroupoid_algebra(ctx, hi & hj).key():
                meet_matches = False
                witnesses.append(("meet mismatch", i, j))
            hj_gen = g.close_arrow_set(hi | hj)
            if join.key() != subgroupoid_algebra(ctx, hj_gen).key():
                join_matches = False
                witnesses.append(("join mismatch", i, j))

    return LatticeReport(ctx, wides, alg_list, wide_of_algebra,
                         algebra_of_wide, mutually_inverse, order_isomorphism,
                         meet_matches, join_matches, witnesses)


def pqc_scan(ctx: Context, guard: int = SCAN_GUARD) -> dict:
    """Classify every singly generated intermediate subalgebra.

    Verdicts carry the singly-generated scope tag; nothing beyond that net is
    claimed.  For trivial twists the outcome is compared against the
    isolated-Z2-isotropy predicate on the groupoid.
    """
    if not (ctx.ring.is_field and ctx.ring.is_finite):
        raise InputError("pqc_scan needs a finite field")
    g = ctx.groupoid
    p = ctx.p
    closures, scanned = singly_generated_closures(ctx, guard)
    failures = []
    for k in sorted(closures):
        c, gen = closures[k]
        rep = classify(ctx, c, guard)
        if rep.verdict == "undetermined":
            raise InternalCheckError("scan hit an undetermined classification")
        if not rep.quasi_cartan:
            failing = sorted(name for name, v in rep.flags.items() if v is False)
            failures.append({
                "generator": gen,
                "dim": c.dim,
                "failing_flags": failing,
                "c_basis": c,
            })
    clean = not failures
    verdict = ("purely quasi-Cartan (singly-generated)" if clean
               else "not purely quasi-Cartan (singly-generated)")
    report = {
        "generator_space": p ** g.num_arrows,
        "generators_scanned": scanned,
        "distinct_closures": len(closures),
        "failures": failures,
        "failure_count": len(failures),
        "clean": clean,
        "verdict": verdict,
        "scope": "singly-generated",
    }
    if ctx.cocycle.is_trivial():
        report["i2i"] = g.is_i2i()
        report["i2i_agreement"] = report["i2i"] == clean
    return report


# -- explicit obstructions ---------------------------------------------------

def counterexample_two_arrows(ctx: Context, guard: int = SCAN_GUARD):
    """Two parallel arrows between distinct units give a subalgebra that no
    wide subgroupoid can see.  Returns (C basis, proof record)."""
    g = ctx.groupoid
    found = None
    for u in g.units():
        for v in g.units():
            if u == v:
                continue
            between = g.arrows_between(u, v)
            if len(between) >= 2:
                found = (u, v, between[0], between[1])
                break
        if found:
            break
    if found is None:
        raise InputError("no two units are joined by two parallel arrows")
    u, v, g1, g2 = found
    f = ctx.delta(g1) + ctx.delta(g2)
    c = algebra_closure(ctx, [f])

    ff = f * f
    if not ff.is_zero():
        raise InternalCheckError("f*f should vanish: both factors point the same way")
    values_equal = all(row.value(g1) == row.value(g2) for row in c.rows)
    if not values_equal:
        raise InternalCheckError("closure broke the equal-values constraint")
    if c.contains(ctx.delta(g1)):
        raise InternalCheckError("single-arrow delta should stay outside C")

    rep = classify(ctx, c, guard)
    if rep.quasi_cartan:
        raise InternalCheckError("two-arrows subalgebra classified quasi-Cartan")
    proof = {
        "unit_pair": (int(u), int(v)),
        "arrows": (int(g1), int(g2)),
        "f": f,
        "f_square_zero": True,
        "basis_values_equal": True,
        "delta_arrow_outside": True,
        "c_dim": c.dim,
        "classification": rep,
    }
    return c, proof


def counterexample_bad_apple(ctx: Context, v: int | None = None,
                             guard: int = SCAN_GUARD):
    """Isolated cyclic isotropy of order >= 3 carries a two-dimensional
    subalgebra whose pullback is intermediate but not quasi-Cartan.  Returns
    (C basis, proof record with the product coefficient audit)."""
    r = ctx.ring
    if r.normalize(2) == r.zero:
        raise InputError("needs 1 != -1 in the coefficient ring")
    g = ctx.groupoid

    def isolated(u):
        outgoing = [a for a in range(g.num_arrows) if int(g.src[a]) == u]
        incoming = [a for a in range(g.num_arrows) if int(g.tgt[a]) == u]
        iso = g.arrows_between(u, u)
        return set(outgoing) == set(iso) and set(incoming) == set(iso)

    if v is None:
        for u in g.units():
            if isolated(u) and len(g.arrows_between(u, u)) >= 3:
                v = int(u)
                break
    if v is None:
        raise InputError("no isolated isotropy group of order >= 3")
    if not isolated(v):
        raise InputError("chosen unit has arrows leaving its isotropy")
    iso = g.arrows_between(v, v)
    n = len(iso)
    if n < 3:
        raise InputError("isotropy group must have order >= 3")

    moving = [a for a in iso if a != v]
    sigma = ctx.indicator(moving)
    c = Basis(ctx)
    c.extend(ctx.delta(v))
    c.extend(sigma)
    for a in range(g.num_arrows):
        if a not in iso:
            c.extend(ctx.delta(a))

    closed = algebra_closure(ctx, c.rows)
    if closed.key() != c.key():
        raise InternalCheckError("pullback subalgebra is not closed")
    if delta_arrows(c) & set(moving):
        raise InternalCheckError("single isotropy delta should stay outside C")

    sq = sigma * sigma
    unit_coeff = sq.value(v)
    off_coeffs = {sq.value(a) for a in moving}
    if len(off_coeffs) != 1:
        raise InternalCheckError("sigma^2 left the two-dimensional subalgebra")
    off_coeff = off_coeffs.pop()
    if not c.contains(sq):
        raise InternalCheckError("sigma^2 not in C")

    rep = classify(ctx, c, guard)
    if rep.quasi_cartan:
        raise InternalCheckError("bad-apple subalgebra classified quasi-Cartan")
    reach = union_support(c)
    proof = {
        "unit": int(v),
        "isotropy_order": n,
        "sigma": sigma,
        "sigma_square_unit_coefficient": r.coeff_str(unit_coeff),
        "sigma_square_off_unit_coefficient": r.coeff_str(off_coeff),
        "off_coefficient_is_n_minus_1": off_coeff == r.normalize(n - 1),
        "off_coefficient_is_n_minus_2": off_coeff == r.normalize(n - 2),
        "closure_confirmed": True,
        "moving_deltas_outside": True,
        "c_dim": c.dim,
        "reach_size": len(reach),
        "reach_strictly_larger": len(reach) > c.dim,
        "classification": rep,
    }
    return c, proof


# -- bimodule closures -------------------------------------------------------

def bimodule_spectral(ctx: Context, c: El) -> dict:
    """Is the D-bimodule generated by c the full arrow-set algebra A(U)?

    bi(c) is spanned by the unit-pair blocks delta_u c delta_w, which are c
    restricted to the arrows from w to u (steinberg.corner_blocks).  On
    principal groupoids every block is a single arrow, so the answer must be
    yes; a failure there is an internal error, not a verdict.
    """
    if not ctx.ring.is_field:
        raise InputError("bimodule test needs field coefficients")
    g = ctx.groupoid
    blocks = corner_blocks(c)
    bi = span_closure(ctx, blocks.values())
    support = sorted(c.support())
    spectral = all(bi.contains(ctx.delta(a)) for a in support)
    if spectral != (bi.dim == len(support)):
        raise InternalCheckError("span test and dimension count disagree")
    if g.is_principal() and not spectral:
        raise InternalCheckError("principal groupoid produced a non-spectral bimodule")
    report = {
        "spectral": spectral,
        "dim": bi.dim,
        "support_size": len(support),
        "support": support,
        "verdict": "spectral" if spectral else "synthesis fails",
        "witness": None,
    }
    if not spectral:
        witness = None
        for (u, w), blk in blocks.items():
            if u != w or len(blk.coeffs) < 2:
                continue
            movers = [a for a in blk.coeffs if not g.is_unit(a)
                      and int(g.src[a]) == int(g.tgt[a])]
            if not movers or u not in blk.coeffs:
                continue
            gam = movers[0]
            prop = all(
                ctx.ring.mul(row.value(u), c.value(gam))
                == ctx.ring.mul(row.value(gam), c.value(u))
                for row in bi.rows)
            witness = {"arrow": int(gam), "unit": int(u),
                       "proportional_on_basis": prop}
            break
        if witness is None:
            bad = next((uw, blk) for (uw, blk) in blocks.items()
                       if not all(bi.contains(ctx.delta(a)) for a in blk.coeffs))
            witness = {"block": bad[0], "block_support": sorted(bad[1].coeffs)}
        report["witness"] = witness
    return report
