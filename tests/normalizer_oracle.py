"""Brute-force references for the normalizer layer.

These follow the definitions verbatim and compare pairs of elements, so they
are slow; the tests check the fast paths of cartan_lab.normalizers against
them on small contexts.
"""

from cartan_lab.errors import GuardExceeded, InputError, InternalCheckError
from cartan_lab.normalizers import NormalizerCert
from cartan_lab.steinberg import full_algebra_basis


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


def exhaustive_partners(ctx, n, c_basis=None, guard: int = 200_000):
    """All k in the span with verify_cert(n, k): partner uniqueness by brute
    force on tiny contexts."""
    if not ctx.ring.is_finite:
        raise InputError("exhaustive partner scan needs a finite ring")
    basis = c_basis if c_basis is not None else full_algebra_basis(ctx)
    count = len(ctx.ring.elements()) ** basis.dim
    if count > guard:
        raise GuardExceeded("exhaustive partner scan", count, guard)
    return [k for k in basis.elements() if verify_cert(NormalizerCert(n, k))]


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


def composable(ultra, u0, v0) -> bool:
    """UltraStructure.composable with both claims of its docstring checked
    over all pairs of members of up(u0) and up(v0): the projection test
    agrees with u0 v0 != 0, and then every member product is nonzero and
    lies above u0 v0."""
    rep = ultra.composable(u0, v0)
    prod = u0 * v0
    if rep == prod.is_zero():
        raise InternalCheckError("projection test disagrees with the representative product")
    if rep:
        for u in up_set(ultra, u0):
            for v in up_set(ultra, v0):
                uv = u * v
                if uv.is_zero() or not leq(prod, uv):
                    raise InternalCheckError("member product escapes the representative product")
    return rep
