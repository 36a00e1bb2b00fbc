import functools

import pytest

from cartan_lab import coeff
from cartan_lab import groupoid as gpd
from cartan_lab import twist
from cartan_lab.steinberg import Context


def make_context(g, ring, cocycle=None):
    return Context(g, ring, cocycle or twist.trivial_cocycle(g, ring))


KLEIN_TABLE = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]

# two units, two parallel arrows each way plus two isotropy loops per unit side
K2XZ2_PERMS = [[0, 1], [1, 0], [0, 1], [1, 0]]


def klein_bicharacter(g, ring):
    """Cocycle from the biadditive pairing (a, b) -> (-1)^(a_low * b_high).

    Arrow ids equal group-element indices here because the identity is
    element 0 of the table.
    """
    table = {}
    minus = ring.normalize(-1)
    for a in range(4):
        for b in range(4):
            if (a & 1) and (b >> 1) & 1:
                table[(a, b)] = minus
    return twist.Cocycle(g, ring, table)


def k2xz2_bicharacter(g, ring):
    """The Klein bicharacter pulled back to k2xz2: the pair ((a, h.x), (h, x))
    gets sigma(a, h).  Arrow (a, x) has id x for the identity, 2a + x
    otherwise."""
    def aid(a, x):
        return x if a == 0 else 2 * a + x
    minus = ring.normalize(-1)
    table = {(aid(a, K2XZ2_PERMS[h][x]), aid(h, x)): minus
             for a in range(1, 4) for h in range(1, 4) for x in range(2)
             if (a & 1) and (h >> 1) & 1}
    return twist.Cocycle(g, ring, table)


def coboundary_cocycle(g, ring):
    """The coboundary omega(a, b) = c(a) c(b) / c(ab) of c = 2 on the odd
    off-unit arrows and 1 elsewhere: a normalized cocycle whose table is
    not all 1s."""
    def c(a):
        return ring.normalize(2 if a % 2 and not g.is_unit(a) else 1)
    table = {}
    for a, b in g.composable_pairs().tolist():
        v = ring.mul(ring.mul(c(a), c(b)), ring.try_inv(c(int(g.comp[a, b]))))
        if v != ring.one:
            table[(a, b)] = v
    return twist.Cocycle(g, ring, table)


@functools.cache
def largest_allowed_prime():
    """The largest prime the int64 backend admits (coeff.MAX_PRIME_MODULUS)."""
    return next(q for q in range(coeff.MAX_PRIME_MODULUS, 1, -1) if coeff._is_prime(q))


def oracle_context(name):
    """The small contexts the fast paths are checked against brute force on."""
    f2, f3, f5 = (coeff.Ring(coeff.PRIME_FIELD, p) for p in (2, 3, 5))
    q = coeff.Ring(coeff.RATIONALS)
    k2xz2 = gpd.from_action(KLEIN_TABLE, K2XZ2_PERMS, label="k2xz2")
    klein = gpd.from_group(KLEIN_TABLE)
    pair3 = gpd.pair_groupoid(3)
    iso = gpd.attach_isotropy(gpd.disjoint_union([gpd.pair_groupoid(2), gpd.pair_groupoid(1)]),
                              2, gpd.cyclic_table(3))
    return {
        "pair2/F3": lambda: make_context(gpd.pair_groupoid(2), f3),
        "pair3/F2": lambda: make_context(gpd.pair_groupoid(3), f2),
        "pair3/F3": lambda: make_context(gpd.pair_groupoid(3), f3),
        "pair3/F3 twisted": lambda: Context(pair3, f3, coboundary_cocycle(pair3, f3)),
        "z2/F3": lambda: make_context(gpd.from_group(gpd.cyclic_table(2)), f3),
        "z2/F5": lambda: make_context(gpd.from_group(gpd.cyclic_table(2)), f5),
        "z2/Q": lambda: make_context(gpd.from_group(gpd.cyclic_table(2)), q),
        "pair4/F2": lambda: make_context(gpd.pair_groupoid(4), f2),
        "pair4/F3": lambda: make_context(gpd.pair_groupoid(4), f3),
        "pair(4)/Q": lambda: make_context(gpd.pair_groupoid(4), q),
        "sign_flip(2)/Q": lambda: make_context(gpd.sign_flip_groupoid(2), q),
        "z3/F5": lambda: make_context(gpd.from_group(gpd.cyclic_table(3)), f5),
        "z4/F5": lambda: make_context(gpd.from_group(gpd.cyclic_table(4)), f5),
        "z6/F3": lambda: make_context(gpd.from_group(gpd.cyclic_table(6)), f3),
        "k2xz2/F3": lambda: make_context(k2xz2, f3),
        "k2xz2/Q": lambda: make_context(k2xz2, q),
        "k2xz2/Q twisted": lambda: Context(k2xz2, q, k2xz2_bicharacter(k2xz2, q)),
        "k2xz2/F3 twisted": lambda: Context(k2xz2, f3, k2xz2_bicharacter(k2xz2, f3)),
        "klein/F3": lambda: make_context(klein, f3),
        "klein/F5": lambda: make_context(klein, f5),
        "klein/F3 twisted": lambda: Context(klein, f3, klein_bicharacter(klein, f3)),
        "sign_flip(1)/F3": lambda: make_context(gpd.sign_flip_groupoid(1), f3),
        "sign_flip(2)/F3": lambda: make_context(gpd.sign_flip_groupoid(2), f3),
        "iso(pair2+pair1,Z3)/F3": lambda: make_context(iso, f3),
    }[name]()


ORACLE_CONTEXTS = ["pair3/F2", "pair3/F3", "z2/F3", "z3/F5", "k2xz2/F3", "k2xz2/F3 twisted",
                   "klein/F3 twisted", "sign_flip(1)/F3", "iso(pair2+pair1,Z3)/F3"]


@pytest.fixture(scope="session")
def rings():
    return {
        "Q": coeff.Ring(coeff.RATIONALS),
        "F2": coeff.Ring(coeff.PRIME_FIELD, 2),
        "F3": coeff.Ring(coeff.PRIME_FIELD, 3),
        "F5": coeff.Ring(coeff.PRIME_FIELD, 5),
        "Z6": coeff.Ring(coeff.INT_MOD_M, 6),
    }


@pytest.fixture(scope="session")
def pair3_f3(rings):
    return make_context(gpd.pair_groupoid(3), rings["F3"])


@pytest.fixture(scope="session")
def pair3_f2(rings):
    return make_context(gpd.pair_groupoid(3), rings["F2"])


@pytest.fixture(scope="session")
def z2_f3(rings):
    return make_context(gpd.from_group(gpd.cyclic_table(2)), rings["F3"])


@pytest.fixture(scope="session")
def z3_f5(rings):
    return make_context(gpd.from_group(gpd.cyclic_table(3)), rings["F5"])


@pytest.fixture(scope="session")
def k2xz2_f3(rings):
    g = gpd.from_action(KLEIN_TABLE, K2XZ2_PERMS, label="k2xz2")
    return make_context(g, rings["F3"])


def arrow_between(g, s, t, skip_units=True):
    for a in range(g.num_arrows):
        if skip_units and g.is_unit(a):
            continue
        if int(g.src[a]) == s and int(g.tgt[a]) == t:
            return a
    raise AssertionError(f"no arrow {s} -> {t}")
