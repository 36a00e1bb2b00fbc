import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cartan_lab import coeff, steinberg, twist
from cartan_lab import inclusions as inc
from cartan_lab import groupoid as gpd
from cartan_lab.errors import InputError, InternalCheckError
from cartan_lab.steinberg import (Basis, Context, El, algebra_closure, context_from_json,
                                  corner_blocks, decompose_bisections, el_from_json,
                                  full_algebra_basis, intersect_spans, is_bisection,
                                  span_closure)

from normalizer_oracle import split_corners
from conftest import (KLEIN_TABLE, ORACLE_CONTEXTS, klein_bicharacter, largest_allowed_prime,
                      make_context, oracle_context)


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


@pytest.mark.parametrize("name", ["klein/F3 twisted", "k2xz2/F3 twisted", "k2xz2/Q twisted"])
def test_vec_bridge_matches_twisted_convolution(name):
    ctx = oracle_context(name)
    rng = random.Random(13)
    for _ in range(20):
        f, g_ = ctx.random_element(rng), ctx.random_element(rng)
        assert ctx.el_of_vec(ctx.conv_vec(ctx.vec(f), ctx.vec(g_))) == ctx.convolve(f, g_)
    # the batched forms, one factor a stack of rows, on either backend
    f = ctx.random_element(rng)
    rows = [ctx.random_element(rng) for _ in range(3)]
    stack = np.array([ctx.vec(row) for row in rows])
    left = ctx.conv_single_batch(ctx.vec(f), stack)
    right = ctx.conv_batch_single(stack, ctx.vec(f))
    for i, row in enumerate(rows):
        assert ctx.el_of_vec(left[i]) == ctx.convolve(f, row)
        assert ctx.el_of_vec(right[i]) == ctx.convolve(row, f)


@pytest.fixture(scope="module")
def widest_contexts():
    """pair(3) and the twisted Klein group over the largest allowed prime,
    where residues and omega = -1 = p - 1 reach the int64 bound."""
    r = coeff.Ring(coeff.PRIME_FIELD, largest_allowed_prime())
    klein = gpd.from_group(KLEIN_TABLE)
    return [make_context(gpd.pair_groupoid(3), r), Context(klein, r, klein_bicharacter(klein, r))]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_int64_paths_match_the_dict_path_at_the_largest_prime(widest_contexts, data):
    for ctx in widest_contexts:
        p = ctx.p
        residue = st.sampled_from([0, 1, p - 2, p - 1]) | st.integers(0, p - 1)
        rows = st.lists(residue, min_size=ctx.dim, max_size=ctx.dim)
        F = np.array(data.draw(st.lists(rows, min_size=2, max_size=2)), dtype=np.int64)
        G = np.array(data.draw(st.lists(rows, min_size=2, max_size=2)), dtype=np.int64)
        want = np.stack([ctx.vec(ctx.convolve(ctx.el_of_vec(f), ctx.el_of_vec(g_)))
                         for f, g_ in zip(F, G)])
        assert np.array_equal(np.stack([ctx.conv_vec(f, g_) for f, g_ in zip(F, G)]), want)
        assert np.array_equal(ctx.conv_batch(F, G), want)
        assert np.array_equal(ctx.conv_batch_single(F, G[0])[0], want[0])
        assert np.array_equal(ctx.conv_single_batch(F[0], G)[0], want[0])


def convolved_blocks(f):
    """delta_u f delta_w for every pair of units, by convolution, zeros dropped."""
    ctx = f.ctx
    blocks = {}
    for u in ctx.groupoid.units():
        for w in ctx.groupoid.units():
            blk = ctx.delta(u) * f * ctx.delta(w)
            if not blk.is_zero():
                blocks[(int(u), int(w))] = blk
    return blocks


@pytest.mark.parametrize("name", ["klein/F3 twisted", "k2xz2/F3 twisted",
                                  "iso(pair2+pair1,Z3)/F3", "pair3/F3"])
def test_corner_blocks_match_the_convolved_blocks(name):
    ctx = oracle_context(name)
    rng = random.Random(23)
    elements = [ctx.random_element(rng) for _ in range(30)] + ctx.basis_deltas() + [ctx.zero()]
    for f in elements:
        blocks = corner_blocks(f)
        assert list(blocks) == sorted(blocks)
        assert blocks == convolved_blocks(f)


def test_decompose_bisections_pieces_are_bisections(pair3_f3):
    ctx = pair3_f3
    g = ctx.groupoid
    rng = random.Random(17)
    for _ in range(10):
        f = ctx.random_element(rng)
        for value, arrows, kind in decompose_bisections(f):
            assert is_bisection(g, arrows)
            assert kind == ("unit" if all(g.is_unit(a) for a in arrows) else "offunit")
            for a in arrows:
                assert f.value(a) == value


def test_refined_decomposition_keeps_ranges_off_sources(pair3_f3):
    ctx = pair3_f3
    g = ctx.groupoid
    rng = random.Random(19)
    for _ in range(10):
        f = ctx.random_element(rng)
        for value, arrows, kind in decompose_bisections(f):
            assert kind in ("unit", "offunit")
            if kind == "offunit":
                tgts = {int(g.tgt[a]) for a in arrows}
                srcs = {int(g.src[a]) for a in arrows}
                assert not (tgts & srcs)


def test_refined_decomposition_needs_principal(z2_f3):
    with pytest.raises(InputError):
        decompose_bisections(z2_f3.one())


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


# -- the span kernel against the El-arithmetic kernel it replaced -------------

class OracleBasis(Basis):
    """Echelon basis kept with El arithmetic, one new El per pivot step.  It
    keeps its rows in rows and leaves coeffs empty, so its key is read off
    the rows."""

    def key(self):
        return tuple(row.key() for row in self.rows)

    def reduce(self, el):
        r = self.ctx.ring
        cur = el
        for piv, row in zip(self.pivots, self.rows):
            c = cur.value(piv)
            if c != r.zero:
                cur = cur - row.scale(c)
        return cur

    def extend(self, el):
        r = self.ctx.ring
        res = self.reduce(el)
        if res.is_zero():
            return False
        piv = min(res.coeffs)
        res = res.scale(r.try_inv(res.value(piv)))
        idx = 0
        while idx < len(self.pivots) and self.pivots[idx] < piv:
            idx += 1
        self.pivots.insert(idx, piv)
        self.rows.insert(idx, res)
        for i in range(len(self.rows)):
            if i != idx and self.rows[i].value(piv) != r.zero:
                self.rows[i] = self.rows[i] - res.scale(self.rows[i].value(piv))
        return True


def oracle_closure(ctx, generators):
    """The round-based closure: multiply the whole basis by itself until a
    round adds nothing, at most dim A + 1 rounds."""
    basis = OracleBasis(ctx)
    for el in ctx.unit_deltas() + list(generators):
        basis.extend(el)
    for _ in range(ctx.dim + 1):
        snapshot = list(basis.rows)
        grew = [basis.extend(f * g_) for f in snapshot for g_ in snapshot]
        if not any(grew):
            return basis
    raise InternalCheckError("oracle closure failed to stabilize")


@pytest.mark.parametrize("name", ORACLE_CONTEXTS + ["pair(4)/Q", "sign_flip(2)/Q"])
def test_span_kernel_matches_the_el_oracle(name):
    ctx = oracle_context(name)
    rng = random.Random(47)
    cases = [(full_algebra_basis(ctx), oracle_closure(ctx, ctx.basis_deltas()))]
    for _ in range(5):
        sizes = [min(ctx.dim, rng.randint(1, 3)) for _ in range(rng.randint(1, 2))]
        gens = [ctx.random_element(rng, rng.sample(range(ctx.dim), k)) for k in sizes]
        cases.append((algebra_closure(ctx, gens), oracle_closure(ctx, gens)))
    for got, want in cases:
        assert got.pivots == want.pivots
        assert got.key() == want.key()
        for _ in range(5):
            el = ctx.random_element(rng)
            assert got.reduce(el) == want.reduce(el)
            assert got.contains(el) == want.reduce(el).is_zero()


# sign_flip(2) keeps isotropy at its fixed point, so it checks the
# semi-naive loop; the others are principal and close their arrow sets
CLOSURE_CONTEXTS = ["pair3/F2", "pair3/F3", "pair(4)/Q", "sign_flip(2)/F3", "pair3/F3 twisted"]


@pytest.fixture(scope="module")
def closure_contexts():
    return {name: oracle_context(name) for name in CLOSURE_CONTEXTS}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_algebra_closure_matches_the_round_oracle(closure_contexts, data):
    ctx = closure_contexts[data.draw(st.sampled_from(CLOSURE_CONTEXTS))]
    if ctx.is_fp:
        value = st.integers(1, ctx.p - 1)
    else:
        value = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
    drawn = data.draw(st.lists(st.dictionaries(st.integers(0, ctx.dim - 1), value, max_size=3),
                               max_size=2))
    gens = [ctx.element(c) for c in drawn]
    got, want = algebra_closure(ctx, gens), oracle_closure(ctx, gens)
    assert got.pivots == want.pivots
    assert got.key() == want.key()


def row_key(basis):
    """The key of the basis, computed afresh from its coefficient dicts."""
    return tuple(El(basis.ctx, row).key() for row in basis.coeffs)


def test_basis_key_follows_every_change(pair3_f3):
    ctx = pair3_f3
    b = span_closure(ctx, [ctx.delta(0) + ctx.delta(3)])
    before = b.key()
    assert not b.extend(ctx.delta(0, 2) + ctx.delta(3, 2))
    assert b.key() == before
    assert b.extend(ctx.delta(3) + ctx.delta(4))
    assert b.key() != before and b.key() == row_key(b)
    # a copy shares the cache but not the changes
    twin = b.copy()
    kept = b.key()
    assert twin.key() == kept
    assert twin.extend(ctx.delta(5))
    assert twin.key() == row_key(twin) != kept
    assert b.key() == row_key(b) == kept


@pytest.mark.parametrize("ring", ["Q", "F3"])
def test_basis_key_is_the_key_of_its_rows(rings, ring):
    ctx = make_context(gpd.pair_groupoid(3), rings[ring])
    rng = random.Random(37)
    coordinate = Basis.coordinate(ctx, rng.sample(range(ctx.dim), 4))
    extended = span_closure(ctx, [ctx.random_element(rng) for _ in range(3)])
    copied = extended.copy()
    copied.extend(ctx.random_element(rng))
    closure = algebra_closure(ctx, [ctx.random_element(rng, [0, 3, 4])])
    for b in [coordinate, extended, copied, *closure.corners.values()]:
        assert b.key() == tuple(row.key() for row in b.rows)


@pytest.mark.parametrize("name", ["k2xz2/F3", "klein/F3 twisted", "pair3/F3"])
def test_corner_bases_serve_fresh_keys(name):
    ctx = oracle_context(name)
    rng = random.Random(29)
    for _ in range(4):
        c = algebra_closure(ctx, [ctx.random_element(rng, rng.sample(range(ctx.dim), 2))])
        c.key()
        corners = c.corners
        assert all(corner.key() == row_key(corner) for corner in corners.values())
        keys = {vw: corner.key() for vw, corner in corners.items()}
        # growing the span replaces the shared rows it changes, never edits them
        c.extend(ctx.random_element(rng))
        assert c.key() == row_key(c)
        assert {vw: corner.key() for vw, corner in corners.items()} == keys
        assert keys == {vw: row_key(corner) for vw, corner in corners.items()}


# the oracle contexts, and one over Q, whose dense rows hold Fractions
HELD_CORNER_CONTEXTS = ORACLE_CONTEXTS + ["k2xz2/Q twisted"]


@pytest.fixture(scope="module")
def held_corner_contexts():
    return {name: oracle_context(name) for name in HELD_CORNER_CONTEXTS}


def check_held_corners(c):
    """The corners, key, matrix and unit deltas a span holds against the
    row-by-row split of normalizer_oracle, the rows' own keys and vectors,
    and per-delta containment; a span that is no D-bimodule is refused."""
    ctx = c.ctx
    assert c.key() == row_key(c)
    want = np.array([ctx.vec(row) for row in c.rows]).reshape(c.dim, ctx.dim)
    assert np.array_equal(c.matrix, want) and c.matrix.dtype == want.dtype
    try:
        split = split_corners(c)
    except InputError:
        with pytest.raises(InputError, match="not a D-bimodule"):
            c.corners
        return
    held = c.corners
    assert {vw: (b.pivots, b.coeffs) for vw, b in held.items()} == {
        vw: (b.pivots, b.coeffs) for vw, b in split.items()}
    assert sorted(p for b in held.values() for p in b.pivots) == c.pivots
    for corner in held.values():
        assert corner.key() == row_key(corner)
        assert np.array_equal(corner.matrix, np.array([ctx.vec(r) for r in corner.rows]))
    for v in ctx.groupoid.units():
        first = held[(v, v)].coeffs[0] if (v, v) in held else None
        assert (first == {v: ctx.ring.one}) == c.contains(ctx.delta(v))
    assert inc.delta_arrows(c) == {a for a in range(ctx.dim) if c.contains(ctx.delta(a))}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_held_corners_match_the_row_split(held_corner_contexts, data):
    ctx = held_corner_contexts[data.draw(st.sampled_from(HELD_CORNER_CONTEXTS))]
    if ctx.is_fp:
        value = st.integers(1, ctx.p - 1)
    else:
        value = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
    element = st.dictionaries(st.integers(0, ctx.dim - 1), value, max_size=3)
    gens = [ctx.element(c) for c in data.draw(st.lists(element, max_size=2))]
    c = algebra_closure(ctx, gens)
    if data.draw(st.booleans()):
        c.key()   # the key read before the corners are split, or after
    check_held_corners(c)
    twin = c.copy()
    assert twin.corners is c.corners and twin.matrix is c.matrix
    check_held_corners(twin)
    grown = twin.extend(ctx.element(data.draw(element)))
    check_held_corners(twin)
    if grown:
        assert twin.key() != c.key()
    check_held_corners(c)


def test_a_span_that_is_no_bimodule_holds_no_corners(pair3_f3):
    ctx = pair3_f3
    g = ctx.groupoid
    gamma, eta = [a for a in range(ctx.dim) if g.src[a] != g.tgt[a]][:2]
    span = span_closure(ctx, ctx.unit_deltas() + [ctx.delta(gamma) + ctx.delta(eta)])
    with pytest.raises(InputError, match="not a D-bimodule"):
        span.corners
    # D <= span still reads off the rows
    assert inc.delta_arrows(span) == set(ctx.groupoid.units())


@pytest.mark.parametrize("ring", ["Q", "F2", "F3"])
def test_coordinate_spans_match_the_extended_spans(rings, ring):
    ctx = make_context(gpd.pair_groupoid(3), rings[ring])
    rng = random.Random(31)
    for _ in range(20):
        s, t = (rng.sample(range(ctx.dim), rng.randint(0, ctx.dim)) for _ in range(2))
        b1, b2 = Basis.coordinate(ctx, s), Basis.coordinate(ctx, t)
        want = span_closure(ctx, [ctx.delta(a) for a in s])
        assert (b1.pivots, b1.coeffs, b1.key()) == (want.pivots, want.coeffs, want.key())
        assert b1.key() == row_key(b1)
        assert b1.arrows == frozenset(s) and want.arrows is None
        mid = intersect_spans(b1, b2)
        assert mid.arrows == frozenset(s) & frozenset(t)
        assert mid.key() == Basis.coordinate(ctx, set(s) & set(t)).key() == row_key(mid)
        # the same span without its arrow set intersects through the nullspace
        assert intersect_spans(want, b2).key() == mid.key()
        assert mid.dim == b1.dim + b2.dim - span_closure(ctx, b1.rows + b2.rows).dim


def test_copy_keeps_the_arrow_set_and_a_growing_extend_drops_it(pair3_f3):
    ctx = pair3_f3
    b = Basis.coordinate(ctx, [0, 1, 2, 3])
    twin = b.copy()
    assert twin.arrows == b.arrows == frozenset({0, 1, 2, 3})
    assert not twin.extend(ctx.delta(3, 2))
    assert twin.arrows == b.arrows
    assert twin.extend(ctx.delta(4) + ctx.delta(5))
    assert twin.arrows is None and b.arrows == frozenset({0, 1, 2, 3})
    assert intersect_spans(twin, Basis.coordinate(ctx, [3, 4, 5])).key() == (
        span_closure(ctx, [ctx.delta(3), ctx.delta(4) + ctx.delta(5)]).key())


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


def test_the_context_hash_is_worked_out_once(monkeypatch):
    ctx = make_context(gpd.pair_groupoid(2), coeff.Ring(coeff.PRIME_FIELD, 3))
    digest = ctx.canonical_hash()

    def refuse(*args, **kwargs):
        raise AssertionError("the hash was worked out again")

    monkeypatch.setattr(steinberg.json, "dumps", refuse)
    assert ctx.canonical_hash() == digest


def test_context_hash_distinguishes_ring_and_twist():
    g = gpd.from_group(KLEIN_TABLE)
    f3 = coeff.Ring(coeff.PRIME_FIELD, 3)
    plain = make_context(g, f3)
    twisted = Context(g, f3, klein_bicharacter(g, f3))
    other_ring = make_context(gpd.from_group(KLEIN_TABLE), coeff.Ring(coeff.PRIME_FIELD, 5))
    assert plain.canonical_hash() != twisted.canonical_hash()
    assert plain.canonical_hash() != other_ring.canonical_hash()
