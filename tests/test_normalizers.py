import dataclasses
import functools
import gc
import itertools
import math
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cartan_lab import coeff, exactlin
from cartan_lab import groupoid as gpd
from cartan_lab import inclusions as inc
from cartan_lab import normalizers as nz
from cartan_lab.cli import _jsonable
from cartan_lab.errors import GuardExceeded, InputError, InternalCheckError
from cartan_lab.inclusions import (_implemented_for, classify, diagonal_basis,
                                   singly_generated_closures, subgroupoid_algebra)
from cartan_lab.steinberg import (Context, El, algebra_closure, full_algebra_basis, is_bisection,
                                  span_closure)

import normalizer_oracle as oracle
from conftest import (KLEIN_TABLE, ORACLE_CONTEXTS, arrow_between, klein_bicharacter,
                      largest_allowed_prime, make_context, oracle_context)


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

def test_enumerate_full_pair3():
    # the 9 corners of pair(3) hold 2 units each; their sums over the partial
    # bijections of the 3 units are the 138 nonzero normalizers, 38 of them free
    ctx, ((full, scan), *_) = _exhaustive_scans("pair3/F3")
    certs = nz.enumerate_normalizers(ctx)
    assert certs == _one_block(ctx, scan)
    assert len(certs) == 1 + 18
    assert nz.normalizer_count(nz.unit_counts(ctx, certs)) == 138
    for cert in certs:
        assert oracle.verify_cert(cert)
    everything = oracle.all_normalizers(ctx, full)
    assert len(everything) == 139
    for cert in everything:
        assert oracle.verify_cert(cert)
    free = [c for c in everything if oracle.is_free_normalizer(c)]
    assert len(free) == 39


def test_enumerate_f3z2(z2_f3):
    certs = nz.enumerate_normalizers(z2_f3)
    got = sorted(repr(c.n) for c in certs)
    assert got == ["0", "1@0", "1@1", "2@0", "2@1"]


def test_enumerate_f5z3_counts(z3_f5):
    # zero plus the 96 invertibles; only the diagonal scalars are free
    certs = nz.enumerate_normalizers(z3_f5)
    assert len(certs) == 97
    free = [c for c in certs if oracle.is_free_normalizer(c)]
    assert len(free) == 5


def test_enumerate_diagonal_only(pair3_f3):
    # the 2 scalings of each of the 3 unit deltas, and their 26 nonzero sums
    d = diagonal_basis(pair3_f3)
    certs = nz.enumerate_normalizers(pair3_f3, d)
    assert certs == _one_block(pair3_f3, reference_normalizers(pair3_f3, d))
    assert len(certs) == 1 + 6
    assert nz.normalizer_count(nz.unit_counts(pair3_f3, certs)) == 26
    for cert in oracle.all_normalizers(pair3_f3, d):
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
    # 3 unit corners and one corner of each of the 3 opposite pairs, 3
    # candidates each; 3^9 candidates span the whole algebra
    with pytest.raises(GuardExceeded, match="normalizer scan candidates: measured 18 exceeds "
                                            "guard 17"):
        nz.enumerate_normalizers(pair3_f3, guard=17)
    assert len(nz.enumerate_normalizers(pair3_f3, guard=18)) == 19


def test_count_states_guard():
    # the diagonal of pair(5)/F3 scans 5 corners of 3 candidates, but its
    # count runs over the 2^5 sets of target units
    ctx = make_context(gpd.pair_groupoid(5), coeff.Ring(coeff.PRIME_FIELD, 3))
    with pytest.raises(GuardExceeded, match="normalizer count states: measured 32 exceeds "
                                            "guard 31"):
        nz.enumerate_normalizers(ctx, diagonal_basis(ctx), guard=31)
    certs = nz.enumerate_normalizers(ctx, diagonal_basis(ctx), guard=32)
    assert nz.normalizer_count(nz.unit_counts(ctx, certs)) == 3 ** 5 - 1


def _rook_sum(n, units):
    """Nonzero normalizers of pair(n) over a field with that many units: k
    blocks over a partial bijection of size k, each of the units."""
    return sum(math.comb(n, k) ** 2 * math.factorial(k) * units ** k for k in range(1, n + 1))


def test_pair_normalizer_counts_are_rook_sums():
    f3 = coeff.Ring(coeff.PRIME_FIELD, 3)
    counts = []
    for n in range(1, 8):
        ctx = make_context(gpd.pair_groupoid(n), f3)
        certs = nz.enumerate_normalizers(ctx)
        assert len(certs) == 1 + 2 * n * n
        counts.append(nz.normalizer_count(nz.unit_counts(ctx, certs)))
    assert counts == [_rook_sum(n, 2) for n in range(1, 8)]
    assert counts[3:] == [1472, 19090, 291792, 5129306]


def test_pair6_classify_and_pair5_reconstruct_under_the_default_guard():
    f3 = coeff.Ring(coeff.PRIME_FIELD, 3)
    rep = classify(make_context(gpd.pair_groupoid(6), f3))
    assert rep.dims["normalizers"] == 291792
    assert rep.verdict == "ADP"
    rec = nz.phi_check(make_context(gpd.pair_groupoid(5), f3))
    assert rec["normalizer_count"] == 19090
    assert rec["ultrafilter_count"] == 50
    assert rec["reconstructed"]


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


def _one_block(ctx, certs):
    """The certificates whose element lies in one corner, zero included."""
    g = ctx.groupoid
    return [c for c in certs
            if len({(int(g.tgt[a]), int(g.src[a])) for a in c.n.coeffs}) <= 1]


def reference_normalizers(ctx, basis):
    """The exhaustive scan: every monic element of the span in coordinate
    order, certified one at a time, each followed by its scalings."""
    r = ctx.ring
    scalings = [lam for lam in r.units() if lam != r.one]

    def coords(n):
        return tuple(n.value(p) for p in basis.pivots)

    certs = [nz.NormalizerCert(ctx.zero(), ctx.zero())]
    for n in sorted(oracle.span_elements(basis), key=coords):
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


@functools.cache
def _exhaustive_scans(name):
    """An oracle context and its oracle spans, each with its exhaustive scan;
    the full algebra comes first."""
    ctx = oracle_context(name)
    return ctx, [(c, reference_normalizers(ctx, c)) for c in _oracle_spans(ctx)]


@pytest.mark.parametrize("name", ORACLE_CONTEXTS)
def test_enumeration_matches_exhaustive_scan(name):
    """The corner units are the one-block part of the exhaustive scan, in
    its order, and they count the rest."""
    ctx, scans = _exhaustive_scans(name)
    for c, want in scans:
        got = nz.enumerate_normalizers(ctx, c)
        assert got == _one_block(ctx, want)
        assert nz.normalizer_count(nz.unit_counts(ctx, got)) == len(want) - 1


def _certifier_cases(ctx):
    """(n, span) pairs: every element of the oracle spans over a finite
    field, seeded samples of the full algebra over Q."""
    if ctx.ring.is_finite:
        return [(n, c) for c in _oracle_spans(ctx) for n in oracle.span_elements(c)]
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
    for n in oracle.span_elements(c):
        got = nz.is_normalizer(ctx, n, c)
        want = reference_is_normalizer(ctx, n, c)
        assert (got is None) == (want is None), n
        if got is not None:
            assert got.dagger == want.dagger, n


def _rational_grid_block(ctx, arrows):
    """a delta_g + b delta_h for two parallel arrows g, h and a, b from a
    small grid of rationals."""
    vals = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)]
    g, h = arrows
    return [ctx.delta(g, a) + ctx.delta(h, b) for a in vals for b in vals]


@pytest.mark.parametrize("name", ["k2xz2/Q", "k2xz2/Q twisted", "sign_flip(2)/Q"])
def test_block_certifier_over_rationals_on_multi_arrow_blocks(name):
    """The batched convolutions and the partner sum on the Fraction backend:
    two-arrow blocks in every corner that has two arrows."""
    ctx = oracle_context(name)
    g = ctx.groupoid
    full = full_algebra_basis(ctx)
    corners = [g.arrows_between(v, w) for v in g.units() for w in g.units()]
    outcomes = set()
    for arrows in corners:
        if len(arrows) != 2:
            continue
        for n in _rational_grid_block(ctx, arrows):
            got = nz.is_normalizer(ctx, n)
            want = reference_is_normalizer(ctx, n, full)
            assert (got is None) == (want is None), n
            if got is not None:
                assert got.dagger == want.dagger, n
            outcomes.add(got is None)
    assert outcomes == {True, False}


@pytest.fixture(scope="module")
def widest_borel():
    """A Borel subalgebra of the twisted Klein algebra over the largest
    allowed prime, with its idempotent.  The algebra is the split
    quaternions, i^2 = j^2 = 1, k^2 = -1, so M_2(F_p); span{1, e, n} for
    e = (1 + i)/2 and n = j - k is upper triangular, and conjugating it by
    u = 1 + 2i + 3j + 5k gives reduced echelon rows with large residues that
    share the arrow 3."""
    r = coeff.Ring(coeff.PRIME_FIELD, largest_allowed_prime())
    g = gpd.from_group(KLEIN_TABLE)
    ctx = Context(g, r, klein_bicharacter(g, r))
    u = ctx.element({0: 1, 1: 2, 2: 3, 3: 5})
    u_inv = ctx.element({0: 1, 1: -2, 2: -3, 3: -5}).scale(r.try_inv(13))   # u conj(u) = 13
    half = r.try_inv(2)
    idempotent = u * ctx.element({0: half, 1: half}) * u_inv
    c = algebra_closure(ctx, [idempotent, u * ctx.element({2: 1, 3: -1}) * u_inv])
    assert c.pivots == [0, 1, 2] and all(row.value(3) > 1 for row in c.rows[1:])
    return ctx, c, idempotent


def test_block_certifier_at_the_largest_prime_sees_both_outcomes(widest_borel):
    ctx, c, idempotent = widest_borel
    assert nz.is_normalizer(ctx, idempotent, c) is None
    assert nz.is_normalizer(ctx, ctx.one(), c).dagger == ctx.one()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_block_certifier_matches_full_system_at_the_largest_prime(widest_borel, data):
    # residues near p meet in the system, the solve and the partner sum,
    # where two rows add their products at the arrow 3
    ctx, c, _ = widest_borel
    p = ctx.p
    residue = st.sampled_from([0, 1, 2, p - 2, p - 1]) | st.integers(0, p - 1)
    n = ctx.combination([data.draw(residue) for _ in c.rows], c.rows)
    got = nz.is_normalizer(ctx, n, c)
    want = reference_is_normalizer(ctx, n, c)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.dagger == want.dagger


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
            assert oracle.is_free_normalizer(cert) == want, n


def _coeffs(certs) -> list:
    return [(cert.n.coeffs, cert.dagger.coeffs) for cert in certs]


def test_corner_scan_prefilters_one_candidate_per_corner(monkeypatch):
    # the 3 unit corners and one corner of each of the 3 opposite pairs; the
    # other corner of a pair takes its units from the partners.  A fresh
    # context, whose corner pairs no earlier call has scanned
    scanned, ((_, scan), *_) = _exhaustive_scans("pair3/F3")
    ctx = oracle_context("pair3/F3")
    seen = []
    batch = exactlin.batch_solvable_mod_p

    def counting(mats, rhs, p):
        seen.append(mats.shape[0])
        return batch(mats, rhs, p)

    monkeypatch.setattr(exactlin, "batch_solvable_mod_p", counting)
    certs = nz.enumerate_normalizers(ctx)
    assert sum(seen) == 6
    assert _coeffs(certs) == _coeffs(_one_block(scanned, scan))
    assert nz.normalizer_count(nz.unit_counts(ctx, certs)) == 138


def test_isotropy_corner_certifies_one_unit_per_inverse_pair(monkeypatch):
    # F5[Z5] is local with 2,500 units, 625 of them monic; the monic units are
    # coset representatives of the unit group mod F5^x, a group of odd order
    # 625, so only the identity is its own mate: (625 + 1) / 2 inverse pairs
    ctx = make_context(gpd.from_group(gpd.cyclic_table(5)), coeff.Ring(coeff.PRIME_FIELD, 5))
    calls = []
    certify = nz.is_normalizer

    def counting(*args):
        calls.append(1)
        return certify(*args)

    monkeypatch.setattr(nz, "is_normalizer", counting)
    certs = nz.enumerate_normalizers(ctx)
    assert len(certs) == 1 + 2500
    assert len(calls) == 313


@pytest.mark.parametrize("name", ORACLE_CONTEXTS + ["pair2/F3", "pair4/F2", "z2/F5", "klein/F3"])
def test_partner_map_pairing_matches_the_full_corner_scan(name, monkeypatch):
    """One corner of each opposite pair and one unit of each isotropy inverse
    pair give the corner units, and the normalizers, of scanning and
    certifying every corner."""
    ctx = oracle_context(name)
    for c in _oracle_spans(ctx):
        assert nz._corner_units(ctx, c) == oracle.corner_units(ctx, c)
        got = nz.enumerate_normalizers(ctx, c)
        with monkeypatch.context() as m:
            m.setattr(nz, "_corner_units", oracle.corner_units)
            want = nz.enumerate_normalizers(ctx, c)
        assert [(x.n, x.dagger) for x in got] == [(x.n, x.dagger) for x in want]


def test_a_mate_the_prefilter_drops_is_caught(monkeypatch):
    # delta_2 = (0, 0, 1) comes before delta_1 = (0, 1, 0) in candidate order,
    # and its mate is delta_1; a prefilter that loses delta_1 is a false
    # negative.  A fresh context, so that the scan runs
    ctx = oracle_context("z3/F5")
    batched = nz._batched_mask
    lost = ctx.vec(ctx.delta(1))

    def dropping(ctx, c_rows, k_rows):
        cands, mask = batched(ctx, c_rows, k_rows)
        return cands, mask & ~(cands == lost).all(axis=1)

    monkeypatch.setattr(nz, "_batched_mask", dropping)
    with pytest.raises(InternalCheckError):
        nz.enumerate_normalizers(ctx)


@pytest.mark.parametrize("name, calls", [("pair3/F2", 6), ("sign_flip(2)/F3", 8)])
def test_galois_scans_each_corner_pair_once(name, calls, monkeypatch):
    # one batched test per distinct corner pair over all the spans galois
    # classifies and meets: on pair(3)/F2 the 3 unit corners and the 3
    # opposite pairs of arrows; on sign_flip(2)/F3 the 5 unit corners, the 2
    # opposite pairs and the isotropy corner of the flipped unit (classify
    # counts the isotropy corners over F3, the meets scan them)
    ctx = oracle_context(name)
    seen = []
    batched = nz._batched_mask

    def counting(*args):
        seen.append(1)
        return batched(*args)

    monkeypatch.setattr(nz, "_batched_mask", counting)
    inc.galois(ctx)
    assert len(seen) == calls


@pytest.mark.parametrize("name", ORACLE_CONTEXTS)
def test_warm_corner_scans_classify_like_cold_ones(name):
    """Every singly generated closure classified on one context, whose
    corner scans and corner answers earlier closures filled, reports what it
    reports on a context of its own."""
    ctx = oracle_context(name)
    closures, _ = singly_generated_closures(ctx)
    full = full_algebra_basis(ctx)
    # the full algebra comes again last, when every one of its corners is warm
    for c in [full] + [c for c, _ in closures.values()] + [full]:
        cold = oracle_context(name)
        c_cold = span_closure(cold, [El(cold, row.coeffs) for row in c.rows])
        assert classify(ctx, c).to_json() == classify(cold, c_cold).to_json()
    assert ctx._corner_answers


@pytest.mark.parametrize("name", ORACLE_CONTEXTS)
def test_galois_and_pqc_scan_do_not_read_the_memo(name, monkeypatch):
    """The reports are those of emptying the corner memo, scans and answers,
    before every enumeration, when each enumeration scans its corner pairs
    afresh and classify works out every corner's answers."""
    warm = oracle_context(name)
    want = (inc.galois(warm).to_json(), _jsonable(inc.pqc_scan(warm)))
    enumerate_normalizers = nz.enumerate_normalizers
    calls = []

    def cold(ctx, *args, **kwargs):
        calls.append(len(ctx._corner_scans) + len(ctx._corner_answers))
        ctx._corner_scans.clear()
        ctx._corner_answers.clear()
        return enumerate_normalizers(ctx, *args, **kwargs)

    monkeypatch.setattr(nz, "enumerate_normalizers", cold)
    monkeypatch.setattr(inc, "enumerate_normalizers", cold)
    ctx = oracle_context(name)
    assert (inc.galois(ctx).to_json(), _jsonable(inc.pqc_scan(ctx))) == want
    assert any(calls)


def test_the_corner_scan_memo_does_not_keep_its_context_alive():
    """A context whose memo galois filled is freed with its last reference,
    without waiting for the cycle collector."""
    ctx = oracle_context("pair3/F2")
    inc.galois(ctx)
    assert ctx._corner_scans and ctx._corner_answers
    gone = weakref.ref(ctx)
    gc.disable()
    try:
        del ctx
        assert gone() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("p, d", [(2, 1), (2, 5), (3, 1), (3, 4), (5, 3), (7, 2)])
def test_monic_digits_run_in_lexicographic_order(p, d, monkeypatch):
    monkeypatch.setattr(nz, "BATCH_CHUNK", 7)
    want = [v for v in itertools.product(range(p), repeat=d)
            if any(v) and v[next(i for i, x in enumerate(v) if x)] == 1]
    for start in (0, 1, len(want) // 2, len(want) - 1):
        chunks = list(nz._monic_digits(p, d, start))
        assert all(len(chunk) <= 7 for chunk in chunks)
        assert [tuple(row) for chunk in chunks for row in chunk.tolist()] == want[start:]


def _cyclic(n, p):
    return make_context(gpd.from_group(gpd.cyclic_table(n)), coeff.Ring(coeff.PRIME_FIELD, p))


# Z8/F3 and Z9/F3 have a nonzero radical; F2[Z7], F3[Z7] and F2[Z9] have
# residue fields of degree 3 or 6, where the totients in the inversion exceed 1
CYCLIC = ([f"Z{n}/F{p}" for n in range(1, 7) for p in (2, 3, 5, 7)]
          + ["Z8/F3", "Z9/F3", "Z7/F2", "Z7/F3", "Z9/F2"])


@functools.cache
def _isotropy_cases(name):
    """Each isotropy corner of the oracle spans of a context, or of the full
    algebra of Z_n/F_p: (ctx, span, v, is it commutative, units scanned)."""
    if name in CYCLIC:
        ctx = _cyclic(*map(int, name[1:].split("/F")))
        spans = [full_algebra_basis(ctx)]
    else:
        ctx = oracle_context(name)
        spans = _oracle_spans(ctx)
    cases = []
    for c in spans:
        scanned = nz.unit_counts(ctx, nz.enumerate_normalizers(ctx, c))
        for (v, w), corner in sorted(c.corners.items()):
            if v == w:
                commutative = all(x * y == y * x for x in corner.rows for y in corner.rows)
                cases.append((ctx, c, v, commutative, scanned[(v, v)]))
    return cases


@pytest.mark.parametrize("name", ORACLE_CONTEXTS + CYCLIC)
def test_frobenius_count_matches_the_scan(name):
    """The unit count read off the Frobenius matrix equals the scan's on
    every commutative isotropy corner, p = 2 included; classify counts them
    exactly when p > 2, and scans the rest."""
    for ctx, c, v, commutative, scanned in _isotropy_cases(name):
        if commutative:
            assert nz.frobenius_unit_count(ctx, c.corners[(v, v)]) == scanned
        assert ((v, v) in nz.counted_corners(ctx, c)) == (commutative and ctx.p > 2)


def test_z7_f7_classify_counts_without_the_scan(monkeypatch):
    # 7^7 corner candidates: the count comes from the Frobenius matrix and the
    # two witness searches stop within their first chunk of candidates
    chunks = []
    digits = nz._monic_digits

    def counting(*args):
        for chunk in digits(*args):
            chunks.append(len(chunk))
            yield chunk

    monkeypatch.setattr(nz, "_monic_digits", counting)
    rep = classify(_cyclic(7, 7))
    assert rep.dims["normalizers"] == 6 * 7 ** 6 == 705_894
    assert rep.flags["LBH"] is False and rep.flags["delta_idempotent_implemented"] is False
    assert len(chunks) == 2


def test_a_counted_corner_past_int64_is_searched():
    # F5[Z29]: 5 has order 14 mod 29, so it is F5 x F_{5^14}^2, and the
    # search for a unit blocking implementation starts at the candidates led
    # by delta_0, from index (5^28 - 1) / 4 > 2^63 on
    assert (5 ** 28 - 1) // 4 > 2 ** 63
    rep = classify(_cyclic(29, 5))
    assert rep.dims["normalizers"] == 4 * (5 ** 14 - 1) ** 2
    assert rep.flags["LBH"] is False and rep.flags["delta_idempotent_implemented"] is False
    n, _ = rep.witnesses["delta_idempotent_implemented"]
    assert n.coeffs == {0: 1, 28: 1}


def test_corner_bases_partition_the_span(pair3_f3, z3_f5):
    for ctx in (pair3_f3, z3_f5):
        full = full_algebra_basis(ctx)
        corners = full.corners
        assert sum(c.dim for c in corners.values()) == full.dim
        g = ctx.groupoid
        for (v, w), corner in corners.items():
            for row in corner.rows:
                assert {(int(g.tgt[a]), int(g.src[a])) for a in row.coeffs} == {(v, w)}
    sub = algebra_closure(pair3_f3, [pair3_f3.delta(arrow_between(pair3_f3.groupoid, 0, 1))])
    assert sum(c.dim for c in sub.corners.values()) == sub.dim


def test_corner_bases_refuse_a_non_bimodule(pair3_f3):
    gamma = arrow_between(pair3_f3.groupoid, 0, 1)
    span = span_closure(pair3_f3, [pair3_f3.delta(0) + pair3_f3.delta(gamma)])
    with pytest.raises(InputError):
        span.corners


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
    certs = oracle.all_normalizers(ctx, full_algebra_basis(ctx))
    ns = [c.n for c in certs if not c.n.is_zero()]
    rng = random.Random(31)
    g = ctx.groupoid
    for m in rng.sample(ns, 20):
        source_units = {int(g.src[a]) for a in m.coeffs}
        for k in range(len(source_units) + 1):
            for subset in itertools.islice(itertools.combinations(sorted(source_units), k), 4):
                n = oracle.restriction(m, subset)
                assert oracle.leq(n, m)


def _minimals(ctx, c_basis=None) -> list:
    """The corner units of the span, the minimal normalizers, sorted by key."""
    return sorted((c.n for c in nz.enumerate_normalizers(ctx, c_basis) if not c.n.is_zero()),
                  key=El.key)


def test_minimals_are_ultrafilter_representatives(z2_f3):
    minimals = _minimals(z2_f3)
    order = oracle.AssembledOrder(z2_f3)
    assert sorted(repr(m) for m in minimals) == ["1@0", "1@1", "2@0", "2@1"]
    for m in minimals:
        oracle.assert_ultra(order, m)
        assert oracle.is_filter(order, oracle.up_set(order, m))


def test_ultrafilter_counts_match_total_groupoid(pair3_f2, z2_f3):
    for ctx in (pair3_f2, z2_f3):
        expected = len(ctx.ring.units()) * ctx.groupoid.num_arrows
        assert len(_minimals(ctx)) == expected


def test_filters_are_principal_up_sets(z2_f3):
    # every filter in the finite order is the up-set of its least element
    order = oracle.AssembledOrder(z2_f3)
    ns = order.nonzero
    for size in (1, 2, 3):
        for subset in itertools.combinations(ns, size):
            if not oracle.is_filter(order, set(subset)):
                continue
            least = [n for n in subset if all(oracle.leq(n, m) for m in subset)]
            assert len(least) == 1
            assert set(subset) == set(oracle.up_set(order, least[0]))


def test_subsemigroup_filter_calculus(pair3_f3):
    """Filters of N(C,D) interact with N(A,D) by up-closure and intersection."""
    ctx = pair3_f3
    big = oracle.AssembledOrder(ctx)
    big_set = set(big.nonzero)
    big_minimals = _minimals(ctx)
    proper = [h for h in ctx.groupoid.wide_subgroupoids()
              if len(h) not in (ctx.groupoid.n_units, ctx.groupoid.num_arrows)]
    for h in proper[:2]:
        c = subgroupoid_algebra(ctx, h)
        sub = oracle.AssembledOrder(ctx, c)
        s_set = set(sub.nonzero)
        assert s_set <= big_set
        # up-closure of a sub-ultrafilter is an ultrafilter upstairs
        for m in _minimals(ctx, c):
            assert m in big_minimals
            up_t = oracle.up_set(big, m)
            # and intersecting back recovers the original filter
            assert set(oracle.up_set(sub, m)) == set(up_t) & s_set
        # ambient ultrafilters that meet S are recovered from the trace
        for m in big_minimals:
            trace = set(oracle.up_set(big, m)) & s_set
            if not trace:
                continue
            reclosed = set()
            for x in trace:
                reclosed |= oracle.up_set(big, x)
            assert reclosed == set(oracle.up_set(big, m))


def test_ultrafilter_products_independent_of_representatives(z2_f3):
    # pair(2) has proper up-sets (monomials below invertibles), so the
    # product check is not vacuous there
    pair2 = oracle_context("pair2/F3")
    for ctx in (z2_f3, pair2):
        ultra = oracle.AssembledOrder(ctx)

        def upclose(elements):
            out = set()
            for x in elements:
                if x.is_zero():
                    continue
                out |= oracle.up_set(ultra, x)
            return out

        seen_proper_upset = False
        minimals = _minimals(ctx)
        for u0 in minimals:
            if len(oracle.up_set(ultra, u0)) > 1:
                seen_proper_upset = True
            for v0 in minimals:
                if not oracle.composable(ultra, u0, v0):
                    continue
                member_products = {u * v for u in oracle.up_set(ultra, u0)
                                   for v in oracle.up_set(ultra, v0)}
                assert upclose(member_products) == upclose({u0 * v0})
        if ctx is pair2:
            assert seen_proper_upset


@pytest.mark.parametrize("name", ORACLE_CONTEXTS + ["pair2/F3", "pair4/F2"])
def test_block_index_matches_the_order_oracle(name):
    """The corner units are the minimal elements of the assembled normalizers
    under leq, on the full algebra and on seeded subalgebras, and the up-set
    of each, the normalizers whose block at its source unit it is, is an
    ultrafilter."""
    ctx = oracle_context(name)
    g = ctx.groupoid
    for c in _oracle_spans(ctx):
        minimals = _minimals(ctx, c)
        order = oracle.AssembledOrder(ctx, c)
        assert minimals == order.minimals
        for m in minimals:
            src = {int(g.src[a]) for a in m.coeffs}
            up = oracle.up_set(order, m)
            assert up == {n for n in order.nonzero if oracle.restriction(n, src) == m}
            oracle.assert_ultra(order, m)
            assert oracle.is_filter(order, up)


@pytest.mark.parametrize("name", ORACLE_CONTEXTS)
def test_corner_units_decide_like_the_assembled_normalizers(name):
    """On the full algebra and every singly generated closure: the count, the
    span and the first normalizers to fail LBH and implementation by an
    idempotent, from the corner units, are those of the assembled list."""
    ctx = oracle_context(name)
    spans = [full_algebra_basis(ctx)] + [c for c, _ in singly_generated_closures(ctx)[0].values()]
    for c in spans:
        certs = nz.enumerate_normalizers(ctx, c)
        everything = oracle.all_normalizers(ctx, c)
        assert nz.normalizer_count(nz.unit_counts(ctx, certs)) == len(everything) - 1
        assert (span_closure(ctx, [x.n for x in certs]).key()
                == span_closure(ctx, [x.n for x in everything]).key())
        wits = classify(ctx, c).witnesses
        lbh = next((x.n for x in everything if not is_bisection(ctx.groupoid, x.n.coeffs)),
                   None)
        assert wits.get("LBH") == lbh
        implemented = next(((x.n, b) for x in everything
                            if (b := _implemented_for(x.n, ctx)) is not None), None)
        assert wits.get("delta_idempotent_implemented") == implemented


@pytest.mark.parametrize("name", ORACLE_CONTEXTS)
def test_corner_answers_decide_like_the_whole_span(name):
    """regular, free_span and delta_faithful, their dims and witnesses, read
    off the corners, are those decided on the whole span, on the full
    algebra and every singly generated closure, classified on one context."""
    ctx = oracle_context(name)
    spans = [full_algebra_basis(ctx)] + [c for c, _ in singly_generated_closures(ctx)[0].values()]
    for c in spans:
        rep = classify(ctx, c)
        flags, wits, dims = oracle.span_flags(ctx, c)
        assert {k: rep.flags[k] for k in flags} == flags
        assert {k: rep.witnesses[k] for k in wits} == wits
        assert not (rep.witnesses.keys() & flags.keys()) - wits.keys()
        assert {k: rep.dims[k] for k in dims} == dims


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
    # 3^16 elements of the span would exceed the default guard, but the
    # corner scan measures 30 candidates, and the 32 corner units are the
    # ultrafilters, 16 scaling orbits
    ctx = make_context(gpd.pair_groupoid(4), coeff.Ring(coeff.PRIME_FIELD, 3))
    rep = nz.phi_check(ctx)
    assert rep["normalizer_count"] == 1472
    assert rep["ultrafilter_count"] == 32
    assert rep["orbit_count"] == 16
    assert rep["reconstructed"]


def test_reconstruction_quotient_shape(pair3_f2):
    rep = nz.phi_check(pair3_f2)
    assert rep["orbit_count"] == pair3_f2.groupoid.num_arrows
    assert rep["quotient_valid"]
    assert rep["quotient_well_defined"]


# the contexts where the ultrafilters outnumber R^x x G (group algebras,
# attached isotropy) report support_sets_match and arrow_map_bijective False
@pytest.mark.parametrize("name", ORACLE_CONTEXTS + ["pair2/F3", "pair4/F2", "z2/F5", "klein/F3",
                                                   "z4/F5", "pair4/F3"])
def test_phi_check_matches_the_loop_oracle(name):
    """Products of one representative per scaling orbit, and the array
    comparisons, give the report of the pairwise loops over every
    ultrafilter."""
    ctx = oracle_context(name)
    assert nz.phi_check(ctx) == oracle.phi_check(ctx)


def _with_swapped_products(build):
    """build_sigma_prime with the products delta_1 delta_1 and delta_1 (2 delta_1)
    of Z2 over F3 exchanged: the quotient by scaling cannot see the swap, the
    twist can."""
    def swapped(ctx, *guard):
        sigma_prime, ultra, rep_list = build(ctx, *guard)
        a, b = rep_list.index(ctx.delta(1)), rep_list.index(ctx.delta(1, 2))
        comp = sigma_prime.comp.copy()
        comp[a, a], comp[a, b] = comp[a, b], comp[a, a]
        return dataclasses.replace(sigma_prime, comp=comp), ultra, rep_list
    return swapped


def _with_doubled_square(tables):
    """orbit_tables with delta_1 delta_1 = 2 delta_0 on Z2 over F3: the
    swap above seen from the representatives, a scalar the quotient cannot
    see."""
    def doubled(ctx, *args):
        reps, lookup, quotient, scalar = tables(ctx, *args)
        a = reps.index(ctx.delta(1))
        scalar = scalar.copy()
        scalar[a, a] = 2
        return reps, lookup, quotient, scalar
    return doubled


def test_swapped_products_fail_the_twist_comparison(z2_f3, monkeypatch):
    monkeypatch.setattr(nz, "orbit_tables", _with_doubled_square(nz.orbit_tables))
    monkeypatch.setattr(oracle, "build_sigma_prime",
                        _with_swapped_products(oracle.build_sigma_prime))
    rep = nz.phi_check(z2_f3)
    assert rep == oracle.phi_check(z2_f3)
    assert rep["groupoid_isomorphic"] and rep["support_sets_match"]
    assert not rep["twist_squares_match"]
    assert not rep["reconstructed"]


def test_a_broken_inverse_map_fails_the_quotient(pair3_f2, monkeypatch):
    """The quotient's inverse map comes from the certified partners and is
    checked by quotient.validate(): send an arrow's orbit to its own orbit."""
    tables = nz.orbit_tables

    def broken(ctx, *args):
        reps, lookup, quotient, scalar = tables(ctx, *args)
        inv = quotient.inv.copy()
        inv[3] = 3
        return reps, lookup, dataclasses.replace(quotient, inv=inv), scalar

    monkeypatch.setattr(nz, "orbit_tables", broken)
    rep = nz.phi_check(pair3_f2)
    assert not rep["quotient_valid"]
    # orbit 3 is an arrow between two distinct units, so it cannot invert itself
    assert rep["quotient_violation"] == "inverse of 3 has wrong endpoints"
    assert "reconstructed" not in rep


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


def _rref_mod_p_row_by_row(mat, p):
    """rref_mod_p as it was before its updates were batched per pivot column:
    one Python step per row to clear."""
    m = np.array(mat, dtype=np.int64) % p
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz_rows = np.nonzero(m[r:, c])[0]
        if nz_rows.size == 0:
            continue
        pr = r + nz_rows[0]
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        m[r] = (m[r] * pow(int(m[r, c]), -1, p)) % p
        for rr in range(rows):
            if rr != r and m[rr, c]:
                m[rr] = (m[rr] - m[rr, c] * m[r]) % p
        pivots.append(c)
        r += 1
    return m, pivots


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rref_mod_p_matches_the_row_by_row_loop_at_the_largest_prime(data):
    p = largest_allowed_prime()
    rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 7))
    residue = st.sampled_from([0, 0, 1, p - 2, p - 1]) | st.integers(0, p - 1)
    mat = np.array(data.draw(st.lists(st.lists(residue, min_size=cols, max_size=cols),
                                      min_size=rows, max_size=rows)), dtype=np.int64)
    if rows > 2 and data.draw(st.booleans()):
        mat[-1] = (mat[0] + (p - 1) * mat[1]) % p   # rank deficient
    red, pivots = exactlin.rref_mod_p(mat, p)
    want, want_pivots = _rref_mod_p_row_by_row(mat, p)
    assert pivots == want_pivots
    assert np.array_equal(red, want)


def _rref_frac_row_by_row(mat):
    """rref_frac as it was before it shared the sparse echelon kernel: one
    Python step per row to clear, on dense lists of Fraction."""
    m = [[Fraction(x) for x in row] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pr = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


RATIONAL = st.sampled_from([Fraction(0)] * 3) | st.builds(Fraction, st.integers(-6, 6),
                                                          st.integers(1, 4))


def _draw_matrix(data, entry, max_rows, max_cols):
    """A drawn matrix as lists, its last row sometimes a combination of the
    first two (rank deficient)."""
    rows, cols = data.draw(st.integers(1, max_rows)), data.draw(st.integers(1, max_cols))
    mat = data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))
    if rows > 2 and data.draw(st.booleans()):
        lam = data.draw(entry)
        mat[-1] = [x + lam * y for x, y in zip(mat[0], mat[1])]
    return mat


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rref_frac_matches_the_row_by_row_loop(data):
    mat = _draw_matrix(data, RATIONAL, 14, 25)
    red, pivots = exactlin.rref_frac(mat)
    want, want_pivots = _rref_frac_row_by_row(mat)
    assert pivots == want_pivots
    assert red == want
    assert all(type(x) is Fraction for row in red for x in row)


@pytest.mark.parametrize("field", ["largest prime", "F2", "Q"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_solve_and_nullspace_are_exact(field, data):
    """solve returns x with a x = b, or None exactly when rank [a | b] >
    rank a; nullspace returns cols - rank independent vectors v with a v = 0.
    Ranks come from the row-by-row oracles."""
    p = {"largest prime": largest_allowed_prime(), "F2": 2, "Q": None}[field]
    if p is None:
        entry, rank = RATIONAL, lambda m: len(_rref_frac_row_by_row(m)[1])
        solve, nullspace = exactlin.solve_frac, exactlin.nullspace_frac
        times = lambda m, x: [sum(u * v for u, v in zip(row, x)) for row in m]
    else:
        entry = st.sampled_from([0, 0, 1, p - 1]) | st.integers(0, p - 1)
        rank = lambda m: len(_rref_mod_p_row_by_row(np.array(m, dtype=np.int64), p)[1])
        solve = lambda a, b: exactlin.solve_mod_p(np.array(a, dtype=np.int64),
                                                  np.array(b, dtype=np.int64), p)
        nullspace = lambda a: exactlin.nullspace_mod_p(np.array(a, dtype=np.int64), p)
        times = lambda m, x: [sum(u * int(v) for u, v in zip(row, x)) % p for row in m]
    a = _draw_matrix(data, entry, 8, 8)
    b = data.draw(st.lists(entry, min_size=len(a), max_size=len(a)))
    if data.draw(st.booleans()):
        b = times(a, data.draw(st.lists(entry, min_size=len(a[0]), max_size=len(a[0]))))
    x = solve(a, b)
    solvable = rank([row + [bi] for row, bi in zip(a, b)]) == rank(a)
    assert (x is not None) == solvable
    if x is not None:
        assert times(a, x) == b
    null = [list(v) for v in nullspace(a)]
    assert len(null) == len(a[0]) - rank(a)
    assert all(times(a, v) == [0] * len(a) for v in null)
    if null:
        assert rank(null) == len(null)


def test_rref_mod_p_agrees_with_fraction_rref_at_a_large_prime():
    p = 1000003
    rng = random.Random(3)
    for rows, cols in ((4, 6), (6, 4), (5, 5)):
        mat = [[rng.randint(-50, 50) for _ in range(cols)] for _ in range(rows)]
        mat[-1] = [x + y for x, y in zip(mat[0], mat[1])]   # rank deficient
        red, pivots = exactlin.rref_mod_p(np.array(mat), p)
        ref, ref_pivots = _rref_frac_row_by_row(mat)
        assert pivots == ref_pivots
        expected = [[x.numerator * pow(x.denominator, -1, p) % p for x in row] for row in ref]
        assert red.tolist() == expected
    # the batched eliminator at the same prime: ranks agree with rref
    mats = np.array([[[rng.randrange(p) for _ in range(5)] for _ in range(4)]
                     for _ in range(20)], dtype=np.int64)
    mats[::3, -1] = (2 * mats[::3, 0]) % p
    ranks = exactlin._batch_eliminate_mod_p(mats.copy(), p, 5)
    assert ranks.tolist() == [len(exactlin.rref_mod_p(m, p)[1]) for m in mats]
