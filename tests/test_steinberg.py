import random
from fractions import Fraction

import pytest

from cartan_lab import coeff, twist
from cartan_lab import groupoid as gpd
from cartan_lab.errors import InputError
from cartan_lab.steinberg import (Basis, Context, algebra_closure, context_from_json,
                                  decompose_bisections, el_from_json, intersect_spans,
                                  is_bisection, span_closure)

from conftest import KLEIN_TABLE, klein_bicharacter, make_context


def test_convolution_associative_on_all_basis_triples(pair3_f3):
    ds = pair3_f3.basis_deltas()
    for a in ds:
        for b in ds:
            ab = a * b
            for c in ds:
                assert (ab) * c == a * (b * c)


def test_twisted_convolution_associative_on_all_basis_triples():
    r = coeff.Ring(coeff.PRIME_FIELD, 3)
    g = gpd.from_group(KLEIN_TABLE)
    ctx = Context(g, r, klein_bicharacter(g, r))
    ds = ctx.basis_deltas()
    for a in ds:
        for b in ds:
            for c in ds:
                assert (a * b) * c == a * (b * c)


def test_convolution_associative_random_rational():
    ctx = make_context(gpd.pair_groupoid(3), coeff.Ring(coeff.RATIONALS))
    rng = random.Random(3)
    for _ in range(25):
        f, g_, h = (ctx.random_element(rng) for _ in range(3))
        assert (f * g_) * h == f * (g_ * h)


def test_one_is_a_two_sided_identity(pair3_f3, z2_f3):
    for ctx in (pair3_f3, z2_f3):
        rng = random.Random(5)
        one = ctx.one()
        for _ in range(10):
            f = ctx.random_element(rng)
            assert one * f == f
            assert f * one == f


def test_unit_deltas_are_orthogonal_idempotents(pair3_f3):
    ds = pair3_f3.unit_deltas()
    for i, di in enumerate(ds):
        for j, dj in enumerate(ds):
            prod = di * dj
            assert prod == (di if i == j else pair3_f3.zero())


def test_delta_expectation_is_a_diagonal_bimodule_map(pair3_f3):
    ctx = pair3_f3
    rng = random.Random(11)
    units = ctx.unit_deltas()
    for _ in range(10):
        a = ctx.random_element(rng)
        assert ctx.delta_expectation(ctx.delta_expectation(a)) == ctx.delta_expectation(a)
        for d in units:
            for d2 in units:
                lhs = ctx.delta_expectation(d * a * d2)
                assert lhs == d * ctx.delta_expectation(a) * d2


def test_vec_bridge_matches_sparse_convolution(pair3_f3):
    ctx = pair3_f3
    rng = random.Random(13)
    for _ in range(20):
        f = ctx.random_element(rng)
        g_ = ctx.random_element(rng)
        direct = ctx.convolve(f, g_)
        via_vec = ctx.el_of_vec(ctx.conv_vec(ctx.vec(f), ctx.vec(g_)))
        assert via_vec == direct


def test_decompose_bisections_pieces_are_bisections(z3_f5):
    ctx = z3_f5
    rng = random.Random(17)
    for _ in range(10):
        f = ctx.random_element(rng)
        for value, arrows, kind in decompose_bisections(f):
            assert is_bisection(ctx.groupoid, arrows)
            assert kind in ("unit", "offunit", "mixed")
            for a in arrows:
                assert f.value(a) == value


def test_refined_decomposition_keeps_ranges_off_sources(pair3_f3):
    ctx = pair3_f3
    g = ctx.groupoid
    rng = random.Random(19)
    for _ in range(10):
        f = ctx.random_element(rng)
        for value, arrows, kind in decompose_bisections(f, refined=True):
            assert kind in ("unit", "offunit")
            if kind == "offunit":
                tgts = {int(g.tgt[a]) for a in arrows}
                srcs = {int(g.src[a]) for a in arrows}
                assert not (tgts & srcs)


def test_refined_decomposition_needs_principal(z2_f3):
    with pytest.raises(InputError):
        decompose_bisections(z2_f3.one(), refined=True)


def test_algebra_closure_of_symmetric_sum_is_two_dimensional(z3_f5):
    # closure of the diagonal plus delta_1 + delta_2 inside the order-three
    # group algebra: the square falls back into the span
    ctx = z3_f5
    w = ctx.delta(1) + ctx.delta(2)
    c = algebra_closure(ctx, [w])
    assert c.dim == 2
    assert c.contains(w * w)
    assert not c.contains(ctx.delta(1))


def test_algebra_closure_is_idempotent_and_contains_units(pair3_f3):
    ctx = pair3_f3
    rng = random.Random(23)
    for _ in range(5):
        f = ctx.random_element(rng)
        c = algebra_closure(ctx, [f])
        c2 = algebra_closure(ctx, c.rows)
        assert c.key() == c2.key()
        for u in ctx.unit_deltas():
            assert c.contains(u)
        # closed under products of basis rows
        for x in c.rows:
            for y in c.rows:
                assert c.contains(x * y)


def test_basis_reduce_and_extend(pair3_f3):
    ctx = pair3_f3
    b = Basis(ctx)
    assert b.extend(ctx.delta(0))
    assert not b.extend(ctx.delta(0, 2))
    assert b.extend(ctx.delta(3))
    assert b.dim == 2
    assert b.contains(ctx.delta(0) + ctx.delta(3, 2))
    assert b.reduce(ctx.delta(0)).is_zero()
    assert not b.contains(ctx.delta(4))


def test_span_intersection(pair3_f3):
    ctx = pair3_f3
    b1 = span_closure(ctx, [ctx.delta(0), ctx.delta(1)])
    b2 = span_closure(ctx, [ctx.delta(1), ctx.delta(2)])
    mid = intersect_spans(b1, b2)
    assert mid.dim == 1
    assert mid.contains(ctx.delta(1))


@pytest.mark.parametrize("ring", ["Q", "F2", "F3"])
def test_span_intersection_random(rings, ring):
    ctx = make_context(gpd.pair_groupoid(3), rings[ring])
    rng = random.Random(11)

    def random_span():
        support = rng.sample(range(ctx.dim), rng.randint(3, ctx.dim))
        return span_closure(ctx, [ctx.random_element(rng, support=support)
                                  for _ in range(rng.randint(0, 6))])

    for _ in range(25):
        b1, b2 = random_span(), random_span()
        mid = intersect_spans(b1, b2)
        assert all(b1.contains(row) and b2.contains(row) for row in mid.rows)
        joint = span_closure(ctx, b1.rows + b2.rows)
        assert mid.dim == b1.dim + b2.dim - joint.dim


def test_element_json_roundtrip(z3_f5):
    ctx = z3_f5
    f = ctx.delta(0, 2) + ctx.delta(2, 4)
    data = f.to_json()
    assert el_from_json(ctx, data) == f
    with pytest.raises(InputError):
        el_from_json(ctx, {"99": "1"})


def test_rational_element_json_roundtrip():
    ctx = make_context(gpd.pair_groupoid(2), coeff.Ring(coeff.RATIONALS))
    f = ctx.delta(0, Fraction(-3, 7)) + ctx.delta(2, Fraction(5))
    assert el_from_json(ctx, f.to_json()) == f


def test_context_json_roundtrip_and_hash(z3_f5):
    data = z3_f5.to_json()
    again = context_from_json(data)
    assert again.canonical_hash() == z3_f5.canonical_hash()
    assert again.groupoid.num_arrows == 3


def test_context_hash_distinguishes_ring_and_twist():
    g = gpd.from_group(KLEIN_TABLE)
    f3 = coeff.Ring(coeff.PRIME_FIELD, 3)
    plain = make_context(g, f3)
    twisted = Context(g, f3, klein_bicharacter(g, f3))
    other_ring = make_context(gpd.from_group(KLEIN_TABLE), coeff.Ring(coeff.PRIME_FIELD, 5))
    assert plain.canonical_hash() != twisted.canonical_hash()
    assert plain.canonical_hash() != other_ring.canonical_hash()
