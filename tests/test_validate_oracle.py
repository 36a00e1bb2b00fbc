"""The sparse cocycle check, the array groupoid check and the closed-form
average against the exhaustive scans they replace.

The oracles are copies of the scalar scans: `Cocycle.validate` over every
composable triple and `Groupoid.validate` over every pair and triple.  The
fast checks must return the same (ok, message) on valid contexts and on
seeded corruptions, since the message reaches the error report.
"""

import random

import numpy as np
import pytest

from cartan_lab import coeff, twist
from cartan_lab import expectation as exp_mod
from cartan_lab import groupoid as gpd
from cartan_lab.steinberg import Context

from conftest import (K2XZ2_PERMS, KLEIN_TABLE, k2xz2_bicharacter, klein_bicharacter,
                      make_context)


def exhaustive_cocycle_validate(c):
    g = c.groupoid
    r = c.ring
    for (a, b), v in c.table.items():
        if not g.composable(a, b):
            return False, f"table entry on non-composable pair ({a},{b})"
        if r.try_inv(v) is None:
            return False, f"omega({a},{b}) = {v} is not a unit"
    for a in range(g.num_arrows):
        u, w = int(g.tgt[a]), int(g.src[a])
        if c.omega(u, a) != r.one:
            return False, f"normalization fails: omega(tgt,{a}) != 1"
        if c.omega(a, w) != r.one:
            return False, f"normalization fails: omega({a},src) != 1"
    pairs = g.composable_pairs().tolist()
    right_of = {}
    for b, z in pairs:
        right_of.setdefault(b, []).append(z)
    for a, b in pairs:
        ab = int(g.comp[a, b])
        for z in right_of.get(b, []):
            bz = int(g.comp[b, z])
            lhs = r.mul(c.omega(a, b), c.omega(ab, z))
            rhs = r.mul(c.omega(a, bz), c.omega(b, z))
            if lhs != rhs:
                return False, f"cocycle identity fails on ({a},{b},{z})"
    for a in range(g.num_arrows):
        ia = int(g.inv[a])
        if c.omega(a, ia) != c.omega(ia, a):
            return False, f"omega({a},{a}^-1) != omega({a}^-1,{a})"
    return True, None


def exhaustive_groupoid_validate(g):
    n = g.num_arrows
    if g.n_units < 1 or g.n_units > n:
        return False, f"unit count {g.n_units} out of range"
    if g.src.shape != (n,) or g.tgt.shape != (n,):
        return False, "src/tgt shape mismatch"
    if g.comp.shape != (n, n) or g.inv.shape != (n,):
        return False, "comp/inv shape mismatch"
    for u in g.units():
        if g.src[u] != u or g.tgt[u] != u:
            return False, f"unit {u} must have src = tgt = {u}"
    for a in range(n):
        if not (0 <= g.src[a] < g.n_units and 0 <= g.tgt[a] < g.n_units):
            return False, f"arrow {a} has src/tgt outside the unit range"
    for a in range(n):
        for b in range(n):
            c = g.comp[a, b]
            defined = g.src[a] == g.tgt[b]
            if defined and c < 0:
                return False, f"composable pair ({a},{b}) has no product"
            if not defined and c >= 0:
                return False, f"non-composable pair ({a},{b}) has a product"
            if c >= 0:
                if not (0 <= c < n):
                    return False, f"product of ({a},{b}) out of range"
                if g.tgt[c] != g.tgt[a] or g.src[c] != g.src[b]:
                    return False, f"product of ({a},{b}) has wrong endpoints"
    for a in range(n):
        if g.comp[g.tgt[a], a] != a:
            return False, f"left unit law fails at arrow {a}"
        if g.comp[a, g.src[a]] != a:
            return False, f"right unit law fails at arrow {a}"
    for a in range(n):
        ia = g.inv[a]
        if not (0 <= ia < n):
            return False, f"inverse of {a} out of range"
        if g.inv[ia] != a:
            return False, f"inverse not involutive at {a}"
        if g.src[ia] != g.tgt[a] or g.tgt[ia] != g.src[a]:
            return False, f"inverse of {a} has wrong endpoints"
        if g.comp[a, ia] != g.tgt[a]:
            return False, f"a . a^-1 is not the unit at tgt({a})"
        if g.comp[ia, a] != g.src[a]:
            return False, f"a^-1 . a is not the unit at src({a})"
    for a in range(n):
        for b in range(n):
            if g.comp[a, b] < 0:
                continue
            for c in range(n):
                if g.comp[b, c] < 0:
                    continue
                if g.comp[g.comp[a, b], c] != g.comp[a, g.comp[b, c]]:
                    return False, f"associativity fails on ({a},{b},{c})"
    return True, None


F3, F5, F7 = (coeff.Ring(coeff.PRIME_FIELD, p) for p in (3, 5, 7))
Q = coeff.Ring(coeff.RATIONALS)


def klein():
    return gpd.from_group(KLEIN_TABLE, label="klein")


def k2xz2():
    return gpd.from_action(KLEIN_TABLE, K2XZ2_PERMS, label="k2xz2")


def attached():
    base = gpd.disjoint_union([gpd.pair_groupoid(2), gpd.pair_groupoid(1)])
    return gpd.attach_isotropy(base, 2, gpd.cyclic_table(3))


def valid_cocycles():
    kg, kx = klein(), k2xz2()
    sigma = twist.sigma_total(klein_bicharacter(kg, F3))[0]
    return {
        "klein/F3": klein_bicharacter(kg, F3),
        "klein/F5": klein_bicharacter(kg, F5),
        "k2xz2/F3": k2xz2_bicharacter(kx, F3),
        "pair3/F3": twist.trivial_cocycle(gpd.pair_groupoid(3), F3),
        "sigma_total(klein/F3)/F3": twist.trivial_cocycle(sigma, F3),
    }


@pytest.mark.parametrize("name", sorted(valid_cocycles()))
def test_valid_contexts_agree_with_the_exhaustive_scans(name):
    c = valid_cocycles()[name]
    assert c.validate() == exhaustive_cocycle_validate(c) == (True, None)
    assert c.groupoid.validate() == exhaustive_groupoid_validate(c.groupoid) == (True, None)
    Context(c.groupoid, c.ring, c)


def corrupt_table(c, rng, values):
    """One to three entries of the table set to seeded values; a pair that is
    not composable is picked now and then."""
    g = c.groupoid
    n = g.num_arrows
    table = dict(c.table)
    pairs = [tuple(pair) for pair in g.composable_pairs().tolist()]
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.1:
            pair = (rng.randrange(n), rng.randrange(n))
        else:
            pair = rng.choice(pairs)
        table[pair] = rng.choice(values)
    return twist.Cocycle(g, c.ring, table)


@pytest.mark.parametrize("name", ["klein/F3", "klein/F5", "k2xz2/F3", "pair3/F3"])
def test_corrupted_cocycles_report_the_same_first_violation(name):
    c = valid_cocycles()[name]
    r = c.ring
    values = [v for v in r.units() if v != r.one]
    rng = random.Random(name)
    outcomes = set()
    for _ in range(150):
        bad = corrupt_table(c, rng, values)
        expected = exhaustive_cocycle_validate(bad)
        assert bad.validate() == expected, sorted(bad.table.items())
        outcomes.add(expected[1].split(" ")[0] if expected[1] else None)
    # the seeds reach the normalization and identity checks
    assert {"normalization", "cocycle"} <= outcomes


def test_non_unit_entry_over_z6_reports_the_same_violation():
    z6 = coeff.Ring(coeff.INT_MOD_M, 6)
    g = klein()
    for value in (2, 3, 4):
        c = twist.Cocycle(g, z6, {(1, 1): z6.normalize(5), (1, 2): z6.normalize(value)})
        assert c.validate() == exhaustive_cocycle_validate(c)
        assert "is not a unit" in c.validate()[1]


def test_entries_equal_to_one_are_no_support():
    g = klein()
    c = twist.Cocycle(g, F3, {(0, 1): F3.one, (1, 2): F3.one})
    assert c.validate() == exhaustive_cocycle_validate(c) == (True, None)


def edited(g, rng):
    """A copy of g with one seeded entry of comp, inv, src or tgt changed."""
    src, tgt, comp, inv = g.src.copy(), g.tgt.copy(), g.comp.copy(), g.inv.copy()
    n, nu = g.num_arrows, g.n_units
    kind = rng.choice(["comp", "comp", "inv", "src", "tgt"])
    if kind == "comp":
        comp[rng.randrange(n), rng.randrange(n)] = rng.randrange(-1, n + 1)
    elif kind == "inv":
        inv[rng.randrange(n)] = rng.randrange(-1, n + 1)
    else:
        arr = src if kind == "src" else tgt
        arr[rng.randrange(n)] = rng.randrange(-1, nu + 1)
    return gpd.Groupoid(nu, src, tgt, comp, inv)


def test_edited_groupoids_report_the_same_first_violation():
    messages = set()
    for g in (gpd.pair_groupoid(3), klein(), gpd.sign_flip_groupoid(2), attached()):
        rng = random.Random(g.label)
        for _ in range(200):
            bad = edited(g, rng)
            expected = exhaustive_groupoid_validate(bad)
            assert bad.validate() == expected
            messages.add(expected[1])
    # the edits trip each family of messages at least once
    for kind in ("has no product", "has a product", "out of range", "wrong endpoints",
                 "unit law fails", "inverse", "must have src = tgt", "outside the unit range"):
        assert any(kind in m for m in messages if m), kind


# a loop of order 5 with two-sided inverses that is not associative:
# (1.1).2 = 2 but 1.(1.2) = 4
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


@pytest.mark.parametrize("block", [gpd.ASSOC_BLOCK, 1], ids=["default-block", "row-by-row"])
def test_associativity_failures_agree_for_any_block(block, monkeypatch):
    monkeypatch.setattr(gpd, "ASSOC_BLOCK", block)
    loop = gpd.Groupoid(1, np.zeros(5, dtype=np.int64), np.zeros(5, dtype=np.int64),
                        np.array(LOOP5, dtype=np.int64), np.arange(5))
    assert loop.validate() == exhaustive_groupoid_validate(loop) \
        == (False, "associativity fails on (1,1,2)")
    # the same loop as the isotropy at unit 2 beside pair(2): arrows 2, 5..8
    g = gpd.attach_isotropy(gpd.disjoint_union([gpd.pair_groupoid(2), gpd.pair_groupoid(1)]),
                            2, gpd.cyclic_table(5))
    ids = [2, 5, 6, 7, 8]
    comp, inv = g.comp.copy(), g.inv.copy()
    for i in range(5):
        inv[ids[i]] = ids[i]
        for j in range(5):
            comp[ids[i], ids[j]] = ids[LOOP5[i][j]]
    bad = gpd.Groupoid(3, g.src, g.tgt, comp, inv)
    assert bad.validate() == exhaustive_groupoid_validate(bad) \
        == (False, "associativity fails on (5,5,6)")


# -- the closed-form average ---------------------------------------------------

def brute_force_average(ctx, f, fam):
    acc = ctx.zero()
    for m in fam.members:
        acc = acc + m * f * m
    return acc.scale(ctx.ring.try_inv(ctx.ring.normalize(2 ** fam.k)))


def convolved_members(ctx, bisections):
    """The sign family's members as products by convolution, in family order."""
    one = ctx.one()
    members = [one]
    for arrows in bisections:
        targets = sorted({int(ctx.groupoid.tgt[a]) for a in arrows})
        flip = one - ctx.indicator(targets, ctx.ring.normalize(2))
        members = [w * u for w in members for u in (one, flip)]
    return tuple(members)


@pytest.mark.parametrize("ring", [Q, F7], ids=["Q", "F7"])
def test_closed_form_average_equals_the_brute_force_sum(ring):
    ctx = make_context(gpd.pair_groupoid(4), ring)
    g = ctx.groupoid
    rng = random.Random(7)
    seen = set()
    for trial in range(60):
        k = trial % 6
        arrows = rng.sample(list(g.off_units()), k)
        f = ctx.random_element(rng, support=list(g.units()) + arrows)
        f = f + ctx.indicator(arrows)   # every chosen arrow in the support
        pieces = [[a] for a in arrows] if trial % 2 else None
        avg, fam = exp_mod.average_expectation(ctx, f, pieces)
        assert fam.k <= 5
        assert avg == brute_force_average(ctx, f, fam) == ctx.delta_expectation(f)
        assert fam.members == convolved_members(ctx, fam.bisections)
        seen.add(fam.k)
    assert seen == {0, 1, 2, 3, 4, 5}
