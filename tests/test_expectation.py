import random

import pytest

from cartan_lab import coeff, expectation as exp_mod
from cartan_lab import groupoid as gpd
from cartan_lab.errors import InputError
from cartan_lab.steinberg import decompose_bisections

from conftest import arrow_between, make_context


@pytest.fixture(scope="module")
def pair2_q():
    return make_context(gpd.pair_groupoid(2), coeff.Ring(coeff.RATIONALS))


@pytest.fixture(scope="module")
def pair3_q():
    return make_context(gpd.pair_groupoid(3), coeff.Ring(coeff.RATIONALS))


# -- sign families -----------------------------------------------------------

def test_sign_family_single_bisection(pair2_q):
    ctx = pair2_q
    b = frozenset({arrow_between(ctx.groupoid, 1, 0)})
    fam = exp_mod.sign_family(ctx, [b])
    assert fam.k == 1
    assert len(fam.members) == 2
    # the two members take opposite signs on the flipped unit and cancel
    for a in b:
        t, s = int(ctx.groupoid.tgt[a]), int(ctx.groupoid.src[a])
        vals = [ctx.ring.mul(m.value(t), m.value(s)) for m in fam.members]
        assert sum(v == ctx.ring.one for v in vals) == 1
        assert ctx.ring.add(*vals) == ctx.ring.zero


def test_sign_family_empty_is_identity(pair2_q):
    fam = exp_mod.sign_family(pair2_q, [])
    assert fam.k == 0
    assert list(fam.members) == [pair2_q.one()]


def test_sign_family_two_bisections(pair3_q):
    ctx = pair3_q
    g = ctx.groupoid
    b1 = frozenset({arrow_between(g, 1, 0)})
    b2 = frozenset({arrow_between(g, 2, 1)})
    fam = exp_mod.sign_family(ctx, [b1, b2])
    assert fam.k == 2
    assert len(fam.members) == 4
    one = ctx.ring.one
    minus = ctx.ring.neg(one)
    for m in fam.members:
        for u in sorted(fam.region):
            assert m.value(u) in (one, minus)


def test_sign_family_rejects_range_meeting_source(pair2_q):
    ctx = pair2_q
    g = ctx.groupoid
    b = frozenset({arrow_between(g, 1, 0), arrow_between(g, 0, 1)})
    with pytest.raises(InputError, match="unit"):
        exp_mod.sign_family(ctx, [b])


def test_sign_family_rejects_char_two():
    ctx = make_context(gpd.pair_groupoid(2), coeff.Ring(coeff.PRIME_FIELD, 2))
    b = frozenset({arrow_between(ctx.groupoid, 1, 0)})
    with pytest.raises(InputError):
        exp_mod.sign_family(ctx, [b])


def test_sign_family_json(pair2_q):
    b = frozenset({arrow_between(pair2_q.groupoid, 1, 0)})
    data = exp_mod.sign_family(pair2_q, [b]).to_json()
    assert data["k"] == 1
    assert data["size"] == 2


def symmetrized(ctx, family, beta):
    """sum_m m(r(beta)) m(s(beta)) in the ring."""
    r, g = ctx.ring, ctx.groupoid
    t, s = int(g.tgt[beta]), int(g.src[beta])
    tot = r.zero
    for m in family:
        tot = r.add(tot, r.mul(m.value(t), m.value(s)))
    return tot


def recursive_sign_family(ctx, bisections):
    """The sign family by its recursion, the reference for the parity form:
    member list w gives [w * 1, w * e_j] for each w in turn, diagonal
    products taken pointwise, and the factorization of the symmetrized sum
    re-proved on every arrow seen so far at every step."""
    r = ctx.ring
    g = ctx.groupoid
    bis = [frozenset(int(a) for a in b) for b in bisections]
    one = ctx.one()
    members = [one]
    scope = set()
    for arrows in bis:
        flip = one - ctx.indicator(sorted({int(g.tgt[a]) for a in arrows}), r.normalize(2))
        pair = (one, flip)
        new = [ctx.element({v: r.mul(c, u.value(v)) for v, c in w.coeffs.items()})
               for w in members for u in pair]
        scope |= arrows
        for beta in sorted(scope):
            assert symmetrized(ctx, new, beta) == r.mul(symmetrized(ctx, members, beta),
                                                        symmetrized(ctx, pair, beta))
        members = new
    for m in members:
        assert all(m.value(u) in (r.one, r.neg(r.one)) for u in g.units())
    for arrows in bis:
        for beta in arrows:
            assert symmetrized(ctx, members, beta) == r.zero
    return exp_mod.SignFamily(tuple(members), frozenset(g.units()), tuple(bis))


def random_pieces(ctx, rng):
    """The off-unit pieces of a random element on a few arrows, with few
    distinct coefficients, so that k stays small; shuffled, sometimes split
    into single arrows."""
    g = ctx.groupoid
    arrows = rng.sample(list(g.off_units()), rng.randint(1, min(6, len(g.off_units()))))
    f = ctx.element({a: rng.choice((1, 2)) for a in arrows})
    pieces = [arrs for _, arrs, kind in decompose_bisections(f) if kind == "offunit"]
    if rng.random() < 0.3:
        pieces = [frozenset({a}) for arrs in pieces for a in sorted(arrs)]
    rng.shuffle(pieces)
    return pieces


@pytest.mark.parametrize("ring", [coeff.Ring(coeff.RATIONALS)]
                         + [coeff.Ring(coeff.PRIME_FIELD, p) for p in (3, 7, 101)],
                         ids=["Q", "F3", "F7", "F101"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_parity_family_matches_the_recursion(n, ring):
    ctx = make_context(gpd.pair_groupoid(n), ring)
    rng = random.Random(f"{n}/{ring}")
    families = [[]] + [random_pieces(ctx, rng) for _ in range(15)]
    for pieces in families:
        fam = exp_mod.sign_family(ctx, pieces)
        ref = recursive_sign_family(ctx, pieces)
        assert fam.members == ref.members
        assert fam.bisections == ref.bisections
        assert fam.region == ref.region
        assert fam.to_json() == ref.to_json()


# -- averaging ---------------------------------------------------------------

def test_average_matches_restriction_by_hand():
    ctx = make_context(gpd.pair_groupoid(2), coeff.Ring(coeff.PRIME_FIELD, 5))
    a = arrow_between(ctx.groupoid, 1, 0)
    f = ctx.delta(a) + ctx.delta(0, 2)
    avg, fam = exp_mod.average_expectation(ctx, f)
    assert avg == ctx.element({0: 2})
    assert avg == ctx.delta_expectation(f)
    assert fam.k >= 1


def test_average_on_diagonal_elements_is_identity(pair3_q):
    f = pair3_q.element({0: 3, 1: -2, 2: 7})
    avg, fam = exp_mod.average_expectation(pair3_q, f)
    assert avg == f
    assert fam.k == 0


def test_average_random_elements(pair3_q):
    rng = random.Random(41)
    for _ in range(25):
        f = pair3_q.random_element(rng)
        avg, _ = exp_mod.average_expectation(pair3_q, f)
        assert avg == pair3_q.delta_expectation(f)


def test_average_random_elements_mod_five():
    ctx = make_context(gpd.pair_groupoid(3), coeff.Ring(coeff.PRIME_FIELD, 5))
    rng = random.Random(43)
    for _ in range(25):
        f = ctx.random_element(rng)
        avg, _ = exp_mod.average_expectation(ctx, f)
        assert avg == ctx.delta_expectation(f)


def test_average_independent_of_bisection_family(pair3_q):
    ctx = pair3_q
    f = ctx.element({0: 1, 3: 2, 4: -1, 8: 5})
    default_avg, _ = exp_mod.average_expectation(ctx, f)
    pieces = decompose_bisections(f)
    offs = [arrs for _, arrs, kind in pieces if kind != "unit"]
    singles = [frozenset({a}) for arrs in offs for a in arrs]
    rng = random.Random(11)
    for _ in range(3):
        rng.shuffle(singles)
        avg, fam = exp_mod.average_expectation(ctx, f, bisections=singles)
        assert avg == default_avg
        assert fam.k == len(singles)


def test_average_refuses_partial_cover(pair3_q):
    ctx = pair3_q
    f = ctx.element({3: 1, 4: 1})
    with pytest.raises(InputError, match="cover"):
        exp_mod.average_expectation(ctx, f, bisections=[frozenset({3})])


def test_average_refusals():
    z6 = make_context(gpd.pair_groupoid(2), coeff.Ring(coeff.INT_MOD_M, 6))
    with pytest.raises(InputError, match="domain"):
        exp_mod.average_expectation(z6, z6.one())
    f2 = make_context(gpd.pair_groupoid(2), coeff.Ring(coeff.PRIME_FIELD, 2))
    with pytest.raises(InputError):
        exp_mod.average_expectation(f2, f2.one())
    z2 = make_context(gpd.from_group(gpd.cyclic_table(2)),
                      coeff.Ring(coeff.PRIME_FIELD, 3))
    with pytest.raises(InputError):
        exp_mod.average_expectation(z2, z2.one())


# -- the obstruction on isotropy ---------------------------------------------

def test_obstruction_certificate(z2_f3):
    f = z2_f3.element({0: 1, 1: 1})
    proof = exp_mod.averaging_obstruction(z2_f3, f)
    assert proof["arrow"] == 1
    assert proof["unit"] == 0
    assert proof["proportionality_verified"]
    assert proof["random_trials"] == 200
    assert proof["exhaustive_max_size"] == 2
    # families of 1 or 2 diagonal elements over three scalars: 3 + 9 = 12
    assert proof["families_checked"] == 12
    assert proof["exhaustive_none_reproduces"]


def test_obstruction_on_attached_isotropy():
    g = gpd.sign_flip_groupoid(2)
    ctx = make_context(g, coeff.Ring(coeff.PRIME_FIELD, 3))
    iso = [a for a in g.off_units() if g.src[a] == g.tgt[a]]
    gam = iso[0]
    f = ctx.delta(gam) + ctx.delta(int(g.tgt[gam]))
    proof = exp_mod.averaging_obstruction(ctx, f, max_family_size=1)
    assert proof["arrow"] == gam
    assert proof["proportionality_verified"]
    assert proof["families_checked"] == 3 ** g.n_units
    assert proof["exhaustive_none_reproduces"]


def test_obstruction_over_rationals_skips_exhaustive(pair3_q):
    g = gpd.from_group(gpd.cyclic_table(2))
    ctx = make_context(g, coeff.Ring(coeff.RATIONALS))
    f = ctx.element({0: 1, 1: 2})
    proof = exp_mod.averaging_obstruction(ctx, f)
    assert proof["proportionality_verified"]
    assert proof["exhaustive_max_size"] == 0
    assert "exhaustive_note" in proof


def test_obstruction_refuses_principal(pair3_f3):
    with pytest.raises(InputError, match="principal"):
        exp_mod.averaging_obstruction(pair3_f3, pair3_f3.one())


def test_obstruction_needs_weight_on_isotropy(z2_f3):
    f = z2_f3.element({0: 1})
    with pytest.raises(InputError, match="isotropy"):
        exp_mod.averaging_obstruction(z2_f3, f)
