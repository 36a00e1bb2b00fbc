import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from cartan_lab import coeff, exactlin
from cartan_lab import groupoid as gpd
from cartan_lab import normalizers as nz
from cartan_lab.errors import GuardExceeded, InputError
from cartan_lab.inclusions import diagonal_basis, subgroupoid_algebra
from cartan_lab.steinberg import (Context, algebra_closure, corner_bases, full_algebra_basis,
                                  span_closure)

import normalizer_oracle as oracle
from conftest import (KLEIN_TABLE, ORACLE_CONTEXTS, arrow_between, klein_bicharacter,
                      make_context, oracle_context)


# -- certificates and daggers ------------------------------------------------

def test_unit_indicator_normalizer(pair3_f3):
    cert = nz.is_normalizer(pair3_f3, pair3_f3.one())
    assert cert is not None
    assert oracle.verify_cert(cert)
    assert cert.dagger == pair3_f3.one()


def test_partner_solve_over_rationals(rings):
    # Z2/Q is Q x Q; 2 + x has inverse (2 - x)/3, while 1 + x is a zero
    # divisor whose only partner (1 + x)/4 moves the unit off D
    ctx = make_context(gpd.from_group(gpd.cyclic_table(2)), rings["Q"])
    cert = nz.is_normalizer(ctx, ctx.delta(0, Fraction(2)) + ctx.delta(1))
    assert cert is not None
    assert oracle.verify_cert(cert)
    assert cert.dagger == ctx.delta(0, Fraction(2, 3)) + ctx.delta(1, Fraction(-1, 3))
    assert nz.is_normalizer(ctx, ctx.delta(0) + ctx.delta(1)) is None


def test_dagger_closed_form_inverts_bisections(pair3_f3):
    ctx = pair3_f3
    a = arrow_between(ctx.groupoid, 0, 1)
    n = ctx.delta(a) + ctx.delta(arrow_between(ctx.groupoid, 1, 2))
    k = nz.dagger_closed_form(ctx, n)
    assert k is not None
    cert = nz.NormalizerCert(n, k)
    assert oracle.verify_cert(cert)
    # trivial twist: the dagger of an indicator is the indicator of the inverses
    inv_support = {int(ctx.groupoid.inv[x]) for x in n.coeffs}
    assert set(k.coeffs) == inv_support


def test_dagger_closed_form_with_bicharacter_twist():
    r = coeff.Ring(coeff.PRIME_FIELD, 3)
    g = gpd.from_group(KLEIN_TABLE)
    ctx = Context(g, r, klein_bicharacter(g, r))
    for a in range(1, 4):
        n = ctx.delta(a)
        k = nz.dagger_closed_form(ctx, n)
        assert k is not None
        ia = int(g.inv[a])
        expected = ctx.delta(ia, r.try_inv(ctx.cocycle.omega(ia, a)))
        assert k == expected
        assert oracle.verify_cert(nz.NormalizerCert(n, k))


def test_dagger_closed_form_refuses_non_bisections(z3_f5):
    n = z3_f5.delta(1) + z3_f5.delta(2)
    assert nz.dagger_closed_form(z3_f5, n) is None


def test_dagger_unique_for_symmetric_sum(z3_f5):
    # invertible element of a commutative algebra: the partner is forced
    w = z3_f5.delta(1) + z3_f5.delta(2)
    partners = oracle.exhaustive_partners(z3_f5, w)
    assert len(partners) == 1
    k = partners[0]
    assert k == z3_f5.element({0: 2, 1: 3, 2: 3})
    cert = nz.is_normalizer(z3_f5, w)
    assert cert is not None and cert.dagger == k


def test_dagger_unique_across_enumerated_sample(pair3_f3):
    certs = nz.enumerate_normalizers(pair3_f3)
    rng = random.Random(29)
    sample = rng.sample([c for c in certs if not c.n.is_zero()], 12)
    for cert in sample:
        partners = oracle.exhaustive_partners(pair3_f3, cert.n)
        assert partners == [cert.dagger]


def test_closed_form_agrees_with_exhaustive_search_under_twist():
    r = coeff.Ring(coeff.PRIME_FIELD, 3)
    g = gpd.from_group(KLEIN_TABLE)
    ctx = Context(g, r, klein_bicharacter(g, r))
    # groups have one unit, so bisections are single arrows
    for a in range(4):
        for lam in (1, 2):
            n = ctx.delta(a, lam)
            k = nz.dagger_closed_form(ctx, n)
            partners = oracle.exhaustive_partners(ctx, n)
            assert partners == [k]


def test_two_arrows_element_refuted(k2xz2_f3):
    ctx = k2xz2_f3
    g = ctx.groupoid
    u, v = 0, 1
    g1, g2 = g.arrows_between(u, v)
    f = ctx.delta(g1) + ctx.delta(g2)
    assert (f * f).is_zero()
    assert nz.is_normalizer(ctx, f) is None


# -- enumeration -------------------------------------------------------------

def test_enumerate_full_pair3(pair3_f3):
    certs = nz.enumerate_normalizers(pair3_f3)
    assert len(certs) == 139
    for cert in certs:
        assert oracle.verify_cert(cert)
    free = [c for c in certs if nz.is_free_normalizer(c)]
    assert len(free) == 39


def test_enumerate_f3z2(z2_f3):
    certs = nz.enumerate_normalizers(z2_f3)
    got = sorted(repr(c.n) for c in certs)
    assert got == ["0", "1@0", "1@1", "2@0", "2@1"]


def test_enumerate_f5z3_counts(z3_f5):
    # zero plus the 96 invertibles; only the diagonal scalars are free
    certs = nz.enumerate_normalizers(z3_f5)
    assert len(certs) == 97
    free = [c for c in certs if nz.is_free_normalizer(c)]
    assert len(free) == 5


def test_enumerate_diagonal_only(pair3_f3):
    certs = nz.enumerate_normalizers(pair3_f3, diagonal_basis(pair3_f3))
    assert len(certs) == 27
    for cert in certs:
        assert all(pair3_f3.groupoid.is_unit(a) for a in cert.n.coeffs)


def test_example_subalgebra_normalizers_leave_d(z3_f5):
    # span{delta_0, delta_1 + delta_2}: w itself is an invertible normalizer,
    # so the span of N(C,D) recovers all of C
    w = z3_f5.delta(1) + z3_f5.delta(2)
    c = algebra_closure(z3_f5, [w])
    certs = nz.enumerate_normalizers(z3_f5, c)
    span = span_closure(z3_f5, [cert.n for cert in certs])
    assert span.key() == c.key()


def test_enumeration_guard(pair3_f3):
    with pytest.raises(GuardExceeded):
        nz.enumerate_normalizers(pair3_f3, guard=100)


# -- corner-wise enumeration against the exhaustive scan ----------------------

def _system_rows(ctx, n, rows_of):
    """Constraint matrix and rhs of n k n = n, offunit(n delta_u k) = 0 and
    offunit(k delta_u n) = 0, which are linear in k = sum_j x_j rows_of[j]."""
    g = ctx.groupoid
    off = np.array(g.off_units(), dtype=np.int64)
    nv = ctx.vec(n)
    unit_vecs = [ctx.vec(ctx.delta(u)) for u in g.units()]
    cols = []
    for cj in rows_of:
        cv = ctx.vec(cj)
        block = [ctx.conv_vec(ctx.conv_vec(nv, cv), nv)]
        block += [ctx.conv_vec(nv, ctx.conv_vec(uv, cv))[off] for uv in unit_vecs]
        block += [ctx.conv_vec(ctx.conv_vec(cv, uv), nv)[off] for uv in unit_vecs]
        cols.append(np.concatenate(block))
    rhs = np.concatenate([nv, np.zeros(2 * g.n_units * len(off), dtype=nv.dtype)])
    return np.stack(cols, axis=1), rhs


def reference_is_normalizer(ctx, n, basis):
    """The whole-span partner solve: any solution k0 of the system above
    completes to the partner k = k0 n k0, which must pass the definition."""
    if n.is_zero():
        return nz.NormalizerCert(n, ctx.zero())
    sol = ctx.solve(*_system_rows(ctx, n, basis.rows))
    if sol is None:
        return None
    k0 = ctx.combination(sol, basis.rows)
    cert = nz.NormalizerCert(n, k0 * n * k0)
    assert oracle.verify_cert(cert, basis)
    return cert


def reference_normalizers(ctx, basis):
    """The exhaustive scan: every monic element of the span in coordinate
    order, certified one at a time, each followed by its scalings."""
    r = ctx.ring
    scalings = [lam for lam in r.units() if lam != r.one]

    def coords(n):
        return tuple(n.value(p) for p in basis.pivots)

    certs = [nz.NormalizerCert(ctx.zero(), ctx.zero())]
    for n in sorted(basis.elements(), key=coords):
        leading = [c for c in coords(n) if c != r.zero]
        if not leading or leading[0] != r.one:
            continue
        cert = reference_is_normalizer(ctx, n, basis)
        if cert is None:
            continue
        certs.append(cert)
        certs += [nz.NormalizerCert(n.scale(lam), cert.dagger.scale(r.try_inv(lam)))
                  for lam in scalings]
    return certs


def _oracle_spans(ctx):
    """The full algebra and the distinct closures of 5 seeded two-arrow
    generators."""
    rng = random.Random(41)
    spans = {}
    for c in [full_algebra_basis(ctx)] + [
            algebra_closure(ctx, [ctx.random_element(rng, rng.sample(range(ctx.dim), 2))])
            for _ in range(5)]:
        spans.setdefault(c.key(), c)
    return list(spans.values())


@pytest.mark.parametrize("name", ORACLE_CONTEXTS)
def test_enumeration_matches_exhaustive_scan(name):
    ctx = oracle_context(name)
    for c in _oracle_spans(ctx):
        got = nz.enumerate_normalizers(ctx, c)
        want = reference_normalizers(ctx, c)
        assert [(x.n, x.dagger) for x in got] == [(x.n, x.dagger) for x in want]


def _certifier_cases(ctx):
    """(n, span) pairs: every element of the oracle spans over a finite
    field, seeded samples of the full algebra over Q."""
    if ctx.ring.is_finite:
        return [(n, c) for c in _oracle_spans(ctx) for n in c.elements()]
    rng = random.Random(43)
    samples = [ctx.zero(), ctx.delta(1), ctx.delta(0) + ctx.delta(1),
               ctx.delta(0, Fraction(2)) + ctx.delta(1)]
    samples += [ctx.random_element(rng) for _ in range(30)]
    return [(n, full_algebra_basis(ctx)) for n in samples]


@pytest.mark.parametrize("name", ["pair3/F2", "z3/F5", "z2/F3", "klein/F3 twisted", "z2/Q"])
def test_block_certifier_matches_full_system(name):
    ctx = oracle_context(name)
    for n, c in _certifier_cases(ctx):
        got = nz.is_normalizer(ctx, n, c)
        want = reference_is_normalizer(ctx, n, c)
        assert (got is None) == (want is None), n
        if got is not None:
            assert got.dagger == want.dagger, n


def test_block_certifier_matches_full_system_on_a_bimodule(k2xz2_f3):
    # C = D + delta_g1 + delta_g2^-1 for parallel arrows g1, g2 is a bimodule
    # but not an algebra: C_{1,0} is nonzero, yet the closed-form partner of
    # delta_g1 lies outside it, so delta_g1 is no normalizer in C
    ctx = k2xz2_f3
    g = ctx.groupoid
    g1, g2 = g.arrows_between(0, 1)
    c = span_closure(ctx, ctx.unit_deltas() + [ctx.delta(g1), ctx.delta(int(g.inv[g2]))])
    assert nz.is_normalizer(ctx, ctx.delta(g1), c) is None
    for n in c.elements():
        got = nz.is_normalizer(ctx, n, c)
        want = reference_is_normalizer(ctx, n, c)
        assert (got is None) == (want is None), n
        if got is not None:
            assert got.dagger == want.dagger, n


def test_is_normalizer_refuses_a_non_bimodule(pair3_f3):
    gamma = arrow_between(pair3_f3.groupoid, 0, 1)
    n = pair3_f3.delta(0) + pair3_f3.delta(gamma)
    with pytest.raises(InputError):
        nz.is_normalizer(pair3_f3, n, span_closure(pair3_f3, [n]))


@pytest.mark.parametrize("name", ORACLE_CONTEXTS)
def test_free_closed_form_matches_products(name):
    ctx = oracle_context(name)
    d = diagonal_basis(ctx)
    for c in _oracle_spans(ctx):
        for cert in nz.enumerate_normalizers(ctx, c):
            n, k = cert.n, cert.dagger
            want = d.contains(n) or ((k * n) * (n * k)).is_zero()
            assert nz.is_free_normalizer(cert) == want, n


def test_corner_scan_prefilters_one_candidate_per_corner(pair3_f3, monkeypatch):
    seen = []
    batch = exactlin.batch_solvable_mod_p

    def counting(mats, rhs, p):
        seen.append(mats.shape[0])
        return batch(mats, rhs, p)

    monkeypatch.setattr(exactlin, "batch_solvable_mod_p", counting)
    certs = nz.enumerate_normalizers(pair3_f3)
    assert sum(seen) == 9
    assert len(certs) == 139


def test_corner_bases_partition_the_span(pair3_f3, z3_f5):
    for ctx in (pair3_f3, z3_f5):
        full = full_algebra_basis(ctx)
        corners = corner_bases(full)
        assert sum(c.dim for c in corners.values()) == full.dim
        g = ctx.groupoid
        for (v, w), corner in corners.items():
            for row in corner.rows:
                assert {(int(g.tgt[a]), int(g.src[a])) for a in row.coeffs} == {(v, w)}
    sub = algebra_closure(pair3_f3, [pair3_f3.delta(arrow_between(pair3_f3.groupoid, 0, 1))])
    assert sum(c.dim for c in corner_bases(sub).values()) == sub.dim


def test_corner_bases_refuse_a_non_bimodule(pair3_f3):
    gamma = arrow_between(pair3_f3.groupoid, 0, 1)
    span = span_closure(pair3_f3, [pair3_f3.delta(0) + pair3_f3.delta(gamma)])
    with pytest.raises(InputError):
        corner_bases(span)


# -- order and filters -------------------------------------------------------

def test_leq_is_a_partial_order(z2_f3):
    ns = [c.n for c in nz.enumerate_normalizers(z2_f3) if not c.n.is_zero()]
    for n in ns:
        assert oracle.leq(n, n)
    for n in ns:
        for m in ns:
            if oracle.leq(n, m) and oracle.leq(m, n):
                assert n == m
            for k in ns:
                if oracle.leq(n, m) and oracle.leq(m, k):
                    assert oracle.leq(n, k)


def test_leq_restriction_characterization(pair3_f3):
    ctx = pair3_f3
    certs = nz.enumerate_normalizers(ctx)
    ns = [c.n for c in certs if not c.n.is_zero()]
    rng = random.Random(31)
    g = ctx.groupoid
    for m in rng.sample(ns, 20):
        source_units = {int(g.src[a]) for a in m.coeffs}
        for k in range(len(source_units) + 1):
            for subset in itertools.islice(itertools.combinations(sorted(source_units), k), 4):
                n = oracle.restriction(m, subset)
                assert oracle.leq(n, m)


def test_minimals_are_ultrafilter_representatives(z2_f3):
    ultra = nz.UltraStructure(z2_f3)
    assert sorted(repr(m) for m in ultra.minimals) == ["1@0", "1@1", "2@0", "2@1"]
    for m in ultra.minimals:
        oracle.assert_ultra(ultra, m)
        assert oracle.is_filter(ultra, ultra.up_set(m))


def test_ultrafilter_counts_match_total_groupoid(pair3_f2, z2_f3):
    for ctx in (pair3_f2, z2_f3):
        ultra = nz.UltraStructure(ctx)
        expected = len(ctx.ring.units()) * ctx.groupoid.num_arrows
        assert len(ultra.minimals) == expected


def test_filters_are_principal_up_sets(z2_f3):
    # every filter in the finite order is the up-set of its least element
    ultra = nz.UltraStructure(z2_f3)
    ns = ultra.nonzero
    for size in (1, 2, 3):
        for subset in itertools.combinations(ns, size):
            if not oracle.is_filter(ultra, set(subset)):
                continue
            least = [n for n in subset if all(oracle.leq(n, m) for m in subset)]
            assert len(least) == 1
            assert set(subset) == set(ultra.up_set(least[0]))


def test_subsemigroup_filter_calculus(pair3_f3):
    """Filters of N(C,D) interact with N(A,D) by up-closure and intersection."""
    ctx = pair3_f3
    big = nz.UltraStructure(ctx)
    big_set = set(big.nonzero)
    proper = [h for h in ctx.groupoid.wide_subgroupoids()
              if len(h) not in (ctx.groupoid.n_units, ctx.groupoid.num_arrows)]
    for h in proper[:2]:
        sub = nz.UltraStructure(ctx, subgroupoid_algebra(ctx, h))
        s_set = set(sub.nonzero)
        assert s_set <= big_set
        # up-closure of a sub-ultrafilter is an ultrafilter upstairs
        for m in sub.minimals:
            assert m in big.minimals
            up_t = big.up_set(m)
            # and intersecting back recovers the original filter
            assert set(sub.up_set(m)) == set(up_t) & s_set
        # ambient ultrafilters that meet S are recovered from the trace
        for m in big.minimals:
            trace = set(big.up_set(m)) & s_set
            if not trace:
                continue
            reclosed = set()
            for x in trace:
                reclosed |= big.up_set(x)
            assert reclosed == set(big.up_set(m))


def test_ultrafilter_products_independent_of_representatives(z2_f3):
    # pair(2) has proper up-sets (monomials below invertibles), so the
    # product check is not vacuous there
    pair2 = oracle_context("pair2/F3")
    for ctx in (z2_f3, pair2):
        ultra = nz.UltraStructure(ctx)

        def upclose(elements):
            out = set()
            for x in elements:
                if x.is_zero():
                    continue
                out |= oracle.up_set(ultra, x)
            return out

        seen_proper_upset = False
        for u0 in ultra.minimals:
            if len(oracle.up_set(ultra, u0)) > 1:
                seen_proper_upset = True
            for v0 in ultra.minimals:
                if not oracle.composable(ultra, u0, v0):
                    continue
                member_products = {u * v for u in oracle.up_set(ultra, u0)
                                   for v in oracle.up_set(ultra, v0)}
                assert upclose(member_products) == upclose({u0 * v0})
        if ctx is pair2:
            assert seen_proper_upset


@pytest.mark.parametrize("name", ORACLE_CONTEXTS + ["pair2/F3", "pair4/F2"])
def test_block_index_matches_the_order_oracle(name):
    """Minimal elements and up-sets read off the blocks agree with pairwise
    comparison under leq, on the full algebra and on seeded subalgebras."""
    ctx = oracle_context(name)
    for c in _oracle_spans(ctx):
        ultra = nz.UltraStructure(ctx, c)
        assert ultra.minimals == oracle.minimals(ultra)
        for n in ultra.nonzero:
            assert ultra.up_set(n) == oracle.up_set(ultra, n)
        for m in ultra.minimals:
            oracle.assert_ultra(ultra, m)
            assert oracle.is_filter(ultra, ultra.up_set(m))


# -- reconstruction ----------------------------------------------------------

def test_reconstruction_pair2_f2():
    ctx = make_context(gpd.pair_groupoid(2), coeff.Ring(coeff.PRIME_FIELD, 2))
    rep = nz.phi_check(ctx)
    assert rep["reconstructed"]
    assert rep["total_size_matches"]


def test_reconstruction_z2_f3(z2_f3):
    rep = nz.phi_check(z2_f3)
    assert rep["reconstructed"]
    # sigma' has one ultrafilter per (unit scalar, arrow)
    assert rep["ultrafilter_count"] == 4
    assert rep["orbit_count"] == 2


def test_reconstruction_pair4_f3_past_the_scan_guard():
    # 3^16 candidates exceed the default guard; the corner scan finds the
    # normalizers and the block index reads their 32 ultrafilters
    ctx = make_context(gpd.pair_groupoid(4), coeff.Ring(coeff.PRIME_FIELD, 3))
    rep = nz.phi_check(ctx, guard=3 ** 16)
    assert rep["normalizer_count"] == 1472
    assert rep["ultrafilter_count"] == 32
    assert rep["orbit_count"] == 16
    assert rep["reconstructed"]


def test_reconstruction_quotient_shape(pair3_f2):
    sigma_prime, quotient, info = nz.ultrafilter_groupoid(pair3_f2)
    assert quotient is not None
    ok, msg = quotient.validate()
    assert ok, msg
    assert quotient.num_arrows == pair3_f2.groupoid.num_arrows
    assert info["quotient_well_defined"]


# -- batched linear algebra --------------------------------------------------

def test_batch_rank_matches_single():
    rng = np.random.default_rng(5)
    for p in (2, 3, 5):
        mats = rng.integers(0, p, size=(40, 5, 4))
        ranks = exactlin._batch_eliminate_mod_p(mats % p, p, mats.shape[2])
        for i in range(mats.shape[0]):
            assert ranks[i] == len(exactlin.rref_mod_p(mats[i], p)[1])


def test_batch_solvable_matches_brute_force():
    rng = np.random.default_rng(7)
    for p in (2, 3):
        mats = rng.integers(0, p, size=(30, 4, 3))
        rhs = rng.integers(0, p, size=(30, 4))
        got = exactlin.batch_solvable_mod_p(mats, rhs, p)
        for i in range(30):
            brute = False
            for x in itertools.product(range(p), repeat=3):
                if ((mats[i] @ np.array(x)) % p == rhs[i] % p).all():
                    brute = True
                    break
            assert got[i] == brute


def test_rref_mod_p_agrees_with_fraction_rref_at_a_large_prime():
    p = 1000003
    rng = random.Random(3)
    for rows, cols in ((4, 6), (6, 4), (5, 5)):
        mat = [[rng.randint(-50, 50) for _ in range(cols)] for _ in range(rows)]
        mat[-1] = [x + y for x, y in zip(mat[0], mat[1])]   # rank deficient
        red, pivots = exactlin.rref_mod_p(np.array(mat), p)
        ref, ref_pivots = exactlin.rref_frac([[Fraction(x) for x in row] for row in mat])
        assert pivots == ref_pivots
        expected = [[x.numerator * pow(x.denominator, -1, p) % p for x in row] for row in ref]
        assert red.tolist() == expected
    # the batched eliminator at the same prime: ranks agree with rref
    mats = np.array([[[rng.randrange(p) for _ in range(5)] for _ in range(4)]
                     for _ in range(20)], dtype=np.int64)
    mats[::3, -1] = (2 * mats[::3, 0]) % p
    ranks = exactlin._batch_eliminate_mod_p(mats.copy(), p, 5)
    assert ranks.tolist() == [len(exactlin.rref_mod_p(m, p)[1]) for m in mats]
