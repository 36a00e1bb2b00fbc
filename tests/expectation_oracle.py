"""Conditional expectations onto subalgebras, checked against their axioms.

The C*-side tool for intermediate subalgebras: restriction to a wide
subgroupoid H is a conditional expectation of A onto A(H).  No command
computes one; the tests check that restriction is one on every wide
subgroupoid, and that an averaged map onto a two-dimensional isotropy
subalgebra, which is no restriction, is one too.
"""

import numpy as np

from cartan_lab.errors import InputError, InternalCheckError
from cartan_lab.inclusions import subgroupoid_algebra
from cartan_lab.steinberg import Basis, Context, El


def _expectation_axioms(ctx: Context, e_map, target: Basis) -> dict:
    """Check the conditional-expectation axioms for e_map against a target
    subalgebra, exhaustively over basis elements."""
    deltas = ctx.basis_deltas()
    onto = all(target.contains(e_map(d)) for d in deltas)
    fixes = all(e_map(row) == row for row in target.rows)
    idem = all(e_map(e_map(d)) == e_map(d) for d in deltas)
    bimod = True
    for crow in target.rows:
        for crow2 in target.rows:
            for d in deltas:
                if e_map(crow * d * crow2) != crow * e_map(d) * crow2:
                    bimod = False
                    break
            if not bimod:
                break
        if not bimod:
            break
    # faithfulness: E(b a) = 0 for every b forces a = 0.  The normalizers of
    # a regular inclusion span A, so ranging b over an A-basis is the same
    # quantifier.
    mat = np.stack([np.concatenate([ctx.vec(e_map(b * a)) for b in deltas])
                    for a in deltas], axis=1)
    faithful = len(ctx.nullspace(mat)) == 0
    return {"onto": onto, "fixes_target": fixes, "idempotent": idem,
            "bimodule": bimod, "faithful": faithful,
            "conditional_expectation": onto and fixes and idem and bimod}


def expectation_onto_subalgebra(ctx: Context, h_arrows=None,
                                c_basis: Basis | None = None):
    """Conditional expectation onto a subalgebra, two shapes.

    With h_arrows: restriction to a wide subgroupoid H, onto A(H).  With
    c_basis: the averaged expectation onto the two-dimensional isotropy
    subalgebra span{delta_v, sum of the other isotropy deltas}, which is not
    the restriction to any subgroupoid.  Returns (map, report).
    """
    g = ctx.groupoid
    r = ctx.ring
    if (h_arrows is None) == (c_basis is None):
        raise InputError("pass exactly one of h_arrows, c_basis")
    if h_arrows is not None:
        h = frozenset(int(a) for a in h_arrows)
        if not g.is_wide_subgroupoid(h):
            raise InputError("H is not a wide subgroupoid")
        target = subgroupoid_algebra(ctx, h)

        def e_map(f: El) -> El:
            return El(ctx, {a: v for a, v in f.coeffs.items() if a in h})

        report = _expectation_axioms(ctx, e_map, target)
        report["mode"] = "restriction"
        report["H"] = sorted(h)
        if not report["conditional_expectation"]:
            raise InternalCheckError("restriction to a wide subgroupoid must "
                                     "be a conditional expectation")
        return e_map, report

    basis = c_basis
    v = None
    sigma = None
    for row in basis.rows:
        if all(not g.is_unit(a) for a in row.coeffs):
            sigma = row
        elif len(row.coeffs) == 1 and g.is_unit(min(row.coeffs)):
            v = min(row.coeffs)
    if basis.dim != 2 or v is None or sigma is None:
        raise InputError("c_basis must be span{delta_v, moving isotropy sum}")
    iso = set(g.arrows_between(v, v))
    if set(sigma.coeffs) != iso - {v}:
        raise InputError("moving row must cover the isotropy away from the unit")
    if any(sigma.value(a) != r.one for a in sigma.coeffs):
        raise InputError("moving row must have unit coefficients 1")
    n = len(iso)
    inv_rest = r.try_inv(r.normalize(n - 1))
    if inv_rest is None:
        raise InputError(f"{n - 1} is not invertible in {r}")

    def e_map(f: El) -> El:
        total = r.zero
        for a in sigma.coeffs:
            total = r.add(total, f.value(a))
        out = sigma.scale(r.mul(total, inv_rest))
        if f.value(v) != r.zero:
            out = out + ctx.delta(v, f.value(v))
        return out

    report = _expectation_axioms(ctx, e_map, basis)
    report["mode"] = "averaged isotropy"
    report["unit"] = int(v)
    report["isotropy_order"] = n
    return e_map, report
