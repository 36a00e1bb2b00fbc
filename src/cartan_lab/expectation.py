"""Sign families and averaging recovery of the unit-restriction expectation.

For bisections B_1..B_k whose target sets T_j avoid their source sets,
piece j gives the diagonal sign e_j = 1 - 2 [u in T_j], and the family is
the 2^k products of choices of 1 or e_j.  Diagonal elements multiply
pointwise, so a member is a parity: member i flips bisection j when bit
k-1-j of i is set, and its value at a unit u is -1 exactly when an odd
number of the flipped T_j hold u.  For every pair of units

    sum_m m(t) m(s) = prod_j (1 + e_j(t) e_j(s)),

which vanishes when t = r(beta), s = s(beta) for an arrow beta of some B_j,
since then t lies in T_j and s does not.  Averaging u_i * f * u_i over the
family therefore reproduces the restriction of f to the unit space,
provided the groupoid is principal so that f splits into such bisections.

The average has a closed form: (1 / 2^k) sum_m m f m keeps f(beta) where
every T_j holds both r(beta) and s(beta) or neither, and is 0 elsewhere:
O(k |supp f|) work and no convolution.

With isotropy present no diagonal family can do this: the averaged value
at an isotropy arrow and at its base unit share the common exact factor
sum_i u_i(u)^2, so one vanishes exactly when the other does.
`averaging_obstruction` certifies that identity and brute-forces small
families to confirm none reproduces the restriction.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from . import coeff as coeffmod
from .errors import GuardExceeded, InputError, InternalCheckError
from .normalizers import SCAN_GUARD
from .steinberg import Context, El, decompose_bisections, is_bisection


@dataclass(frozen=True)
class SignFamily:
    """2^k diagonal elements, each +1 or -1 at every unit of the region,
    which is the whole unit space."""

    members: tuple
    region: frozenset
    bisections: tuple

    @property
    def k(self) -> int:
        return len(self.bisections)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "size": len(self.members),
            "region": sorted(self.region),
            "bisections": [sorted(b) for b in self.bisections],
            "members": [m.to_json() for m in self.members],
        }


def sign_family(ctx: Context, bisections, guard: int = SCAN_GUARD) -> SignFamily:
    """The 2^k cancellation family for the given bisections, as parities.

    Each input must be a bisection whose target set is disjoint from its
    source set.  Member i is -1 at a unit u exactly when u lies in an odd
    number of the target sets T_j with bit k-1-j of i set, and +1 elsewhere
    (module docstring).  The defining property,
    sum_m m(r(beta)) m(s(beta)) = 0 for every beta in every input bisection,
    is checked on the Gram matrix of the signs before returning; its entries
    are integers, so 0 there is 0 in the ring.  GuardExceeded when the 2^k
    members would exceed the guard.
    """
    r = ctx.ring
    g = ctx.groupoid
    if r.normalize(2) == r.zero:
        raise InputError("sign families need characteristic != 2")
    bis = []
    for b in bisections:
        arrows = frozenset(int(a) for a in b)
        if not arrows:
            raise InputError("empty arrow set in sign family input")
        if not is_bisection(g, arrows):
            raise InputError(f"arrow set {sorted(arrows)} is not a bisection")
        tgts = {int(g.tgt[a]) for a in arrows}
        srcs = {int(g.src[a]) for a in arrows}
        clash = tgts & srcs
        if clash:
            raise InputError(
                "bisection %s has range meeting source at unit %d"
                % (sorted(arrows), min(clash)))
        bis.append(arrows)
    k = len(bis)
    if 2 ** k > guard:
        raise GuardExceeded("sign family members", 2 ** k, guard)

    targets = np.zeros((k, g.n_units), dtype=np.int64)
    for j, arrows in enumerate(bis):
        targets[j, g.tgt[sorted(arrows)]] = 1
    flips = (np.arange(2 ** k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    signs = 1 - 2 * (flips @ targets % 2)
    carried = np.array(sorted(set().union(*bis)), dtype=np.int64)
    bad = (signs.T @ signs)[g.tgt[carried], g.src[carried]] != 0
    if bad.any():
        raise InternalCheckError(f"sign family fails to cancel arrow {carried[bad][0]}")
    value = {1: r.one, -1: r.neg(r.one)}
    units = g.units()
    members = tuple(ctx.element({u: value[x] for u, x in zip(units, row)})
                    for row in signs.tolist())
    return SignFamily(members, frozenset(units), tuple(bis))


def average_expectation(ctx: Context, f: El, bisections=None,
                        guard: int = SCAN_GUARD):
    """Recover the unit restriction of f by sign-family averaging.

    Needs an integral domain of characteristic != 2 (rationals or an odd
    prime field) and a principal groupoid.  The off-unit support of f is
    split into bisections with disjoint ranges and sources (callers may
    supply their own covering; the result does not depend on the choice),
    the family over those pieces is built, and the average

        (1 / 2^k) * sum_i u_i * f * u_i

    is returned together with the family, in closed form (see the module
    docstring).  Equality with the direct restriction is asserted, not
    assumed.  The guard bounds the 2^k members.
    """
    r = ctx.ring
    g = ctx.groupoid
    if r.kind == coeffmod.INT_MOD_M:
        raise InputError(
            "averaging needs an integral domain: rationals or an odd prime field")
    if r.normalize(2) == r.zero:
        raise InputError("averaging needs characteristic != 2")
    if not g.is_principal():
        raise InputError("averaging needs a principal groupoid")
    if bisections is None:
        pieces = decompose_bisections(f)
        bisections = [arrows for _, arrows, kind in pieces if kind == "offunit"]
    covered = set()
    for b in bisections:
        covered |= {int(a) for a in b}
    off = ctx.off_unit_part(f)
    if not set(off.coeffs) <= covered:
        raise InputError("supplied bisections do not cover the off-unit support")
    fam = sign_family(ctx, bisections, guard=guard)
    flipped = [{int(g.tgt[a]) for a in arrows} for arrows in fam.bisections]
    avg = ctx.element({a: v for a, v in f.coeffs.items()
                       if all((int(g.tgt[a]) in t) == (int(g.src[a]) in t)
                              for t in flipped)})
    if avg != ctx.delta_expectation(f):
        raise InternalCheckError("averaged element disagrees with the unit restriction")
    return avg, fam


def _family_identity(ctx: Context, family, f: El, gamma: int, unit: int):
    """Check the proportionality identity for one diagonal family.

    sum_i u_i * f * u_i takes value (sum_i u_i(u)^2) * f(gamma) at the
    isotropy arrow gamma and (sum_i u_i(u)^2) * f(u) at its base unit u.
    Returns (factor, symmetrized sum).
    """
    r = ctx.ring
    factor = r.zero
    for u in family:
        v = u.value(unit)
        factor = r.add(factor, r.mul(v, v))
    tot = ctx.zero()
    for u in family:
        tot = tot + u * f * u
    if tot.value(gamma) != r.mul(factor, f.value(gamma)):
        raise InternalCheckError("obstruction identity fails at the isotropy arrow")
    if tot.value(unit) != r.mul(factor, f.value(unit)):
        raise InternalCheckError("obstruction identity fails at the base unit")
    return factor, tot


def averaging_obstruction(ctx: Context, f: El, n_random: int = 200,
                          max_family_size: int = 2, seed: int = 0,
                          guard: int = SCAN_GUARD) -> dict:
    """Certify that no diagonal family averages f down to its unit restriction.

    Needs an isotropy arrow gamma outside the unit space with both
    f(gamma) and f(r(gamma)) nonzero.  For families of diagonal elements
    the symmetrized sum is tied to the single factor sum_i u_i(r(gamma))^2
    at gamma and at r(gamma), so it vanishes at one exactly when it
    vanishes at the other; reproducing the restriction would need zero at
    gamma but not at r(gamma).  The identity is verified on random
    families, and on finite rings every family of size <= max_family_size
    is additionally scanned to confirm none reproduces the restriction.
    """
    r = ctx.ring
    g = ctx.groupoid
    if g.is_principal():
        raise InputError("groupoid is principal; nothing to obstruct")
    gamma = None
    unit = None
    for a in range(g.num_arrows):
        if g.is_unit(a):
            continue
        t = int(g.tgt[a])
        if int(g.src[a]) == t and f.value(a) != r.zero and f.value(t) != r.zero:
            gamma, unit = a, t
            break
    if gamma is None:
        raise InputError(
            "need an isotropy arrow gamma with f(gamma) != 0 and f(r(gamma)) != 0")

    units = sorted(int(u) for u in g.units())
    rng = random.Random(seed)
    for _ in range(n_random):
        size = rng.randint(1, 3)
        family = [ctx.random_element(rng, support=units) for _ in range(size)]
        _family_identity(ctx, family, f, gamma, unit)

    proof = {
        "arrow": gamma,
        "unit": unit,
        "f_at_arrow": r.coeff_str(f.value(gamma)),
        "f_at_unit": r.coeff_str(f.value(unit)),
        "random_trials": n_random,
        "random_family_sizes": [1, 3],
        "proportionality_verified": True,
        "seed": seed,
    }

    if not r.is_finite:
        proof["exhaustive_max_size"] = 0
        proof["exhaustive_note"] = "infinite coefficient ring, family scan skipped"
        return proof

    n_diag = r.modulus ** len(units)
    total = sum(n_diag ** n for n in range(1, max_family_size + 1))
    if total > guard:
        raise GuardExceeded("diagonal family scan", total, guard)
    diag = []
    for combo in itertools.product(r.elements(), repeat=len(units)):
        coeffs = {u: r.normalize(v) for u, v in zip(units, combo) if r.normalize(v) != r.zero}
        diag.append(ctx.element(coeffs))
    target = ctx.delta_expectation(f)
    reproduced = None
    checked = 0
    for n in range(1, max_family_size + 1):
        for family in itertools.product(diag, repeat=n):
            checked += 1
            _, tot = _family_identity(ctx, family, f, gamma, unit)
            if tot == target and reproduced is None:
                reproduced = [u.to_json() for u in family]
    proof["exhaustive_max_size"] = max_family_size
    proof["families_checked"] = checked
    proof["exhaustive_none_reproduces"] = reproduced is None
    if reproduced is not None:
        proof["reproducing_family"] = reproduced
    return proof
