"""Acceptance gate: the numbered behavior contracts, one test each.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  Every test enforces its stated wall-clock budget; values are
asserted exactly (ring equality, no tolerances).
"""

import random
import time
from contextlib import contextmanager

import numpy as np

from cartan_lab import coeff, exactlin, expectation as exp_mod
from cartan_lab import groupoid as gpd
from cartan_lab import inclusions as inc
from cartan_lab import normalizers as nz
from cartan_lab.steinberg import Basis, Context, algebra_closure

import normalizer_oracle as oracle
from conftest import KLEIN_TABLE, klein_bicharacter, make_context


@contextmanager
def budget(seconds):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, (
        f"time budget exceeded: {elapsed:.1f}s, budget {seconds}s")


def test_criterion_01_torsion_witness():
    with budget(1):
        ctx = make_context(gpd.pair_groupoid(2), coeff.Ring(coeff.INT_MOD_M, 6))
        rep = inc.classify(ctx)
        assert rep.flags["WT"] is False
        assert rep.witnesses["WT"] == [2, 3]
        assert rep.verdict == "not-quasi-Cartan"


def test_criterion_02_classification_tower(pair3_f3, z2_f3):
    with budget(10):
        assert inc.classify(pair3_f3).verdict == "ADP"
        rep = inc.classify(z2_f3)
        assert rep.verdict == "AQP"
        assert rep.flags["maximal_abelian"] is False

        du = gpd.disjoint_union([gpd.pair_groupoid(2), gpd.pair_groupoid(1)])
        pool = [
            gpd.pair_groupoid(2),
            gpd.pair_groupoid(3),
            gpd.from_group(gpd.cyclic_table(2)),
            gpd.from_group(gpd.cyclic_table(3)),
            gpd.from_group(gpd.cyclic_table(4)),
            gpd.from_action(KLEIN_TABLE, [[0, 1], [1, 0], [0, 1], [1, 0]]),
            du,
            gpd.attach_isotropy(du, 2, gpd.cyclic_table(3)),
        ]
        rings = {p: coeff.Ring(coeff.PRIME_FIELD, p) for p in (2, 3, 5)}
        rng = random.Random(2024)
        done = 0
        while done < 20:
            g = rng.choice(pool)
            p = rng.choice([2, 3, 5])
            if p == 5 and g.num_arrows > 6:
                continue
            flags = inc.classify(Context(g, rings[p])).flags
            # ADP implies ACP implies AQP, stated on the defining flags
            if flags["free_span"]:
                assert flags["maximal_abelian"], (g.label, p)
            if flags["maximal_abelian"]:
                assert flags["delta_idempotent_implemented"], (g.label, p)
            done += 1


def test_criterion_03_lattice_correspondence(pair3_f2):
    with budget(300):
        ctx = pair3_f2
        g = ctx.groupoid
        gal = inc.galois(ctx)
        assert (len(gal.wides), len(gal.algebras)) == (5, 5)
        assert gal.verdict == "match"
        assert gal.mutually_inverse and gal.order_isomorphism
        assert gal.meet_matches and gal.join_matches
        for i in range(5):
            assert gal.wide_of_algebra[gal.algebra_of_wide[i]] == i

        # independent cross-check: enumerate every subspace containing the
        # diagonal (equivalently every subspace of the 6-dimensional off-unit
        # coordinate space), keep the convolution-closed ones, classify those
        off = list(g.off_units())
        assert len(off) == 6

        def extend(span_set, v):
            if v in span_set:
                return span_set
            return frozenset(span_set | {x ^ v for x in span_set})

        zero = frozenset({0})
        seen = {zero}
        queue = [zero]
        while queue:
            s = queue.pop()
            for v in range(1, 64):
                if v not in s:
                    t = extend(s, v)
                    if t not in seen:
                        seen.add(t)
                        queue.append(t)
        assert len(seen) == 2825

        def mask_to_vec(m):
            v = np.zeros(g.num_arrows, dtype=np.int64)
            for i, a in enumerate(off):
                if (m >> i) & 1:
                    v[a] = 1
            return v

        unit_vecs = [np.eye(g.num_arrows, dtype=np.int64)[int(u)]
                     for u in g.units()]
        closed = []
        for s in seen:
            basis_masks = []
            for m in sorted(s, reverse=True):
                x = m
                for b in basis_masks:
                    if x ^ b < x:
                        x ^= b
                if x:
                    basis_masks.append(x)
                    basis_masks.sort(reverse=True)
            mat = np.array(unit_vecs + [mask_to_vec(m) for m in basis_masks],
                           dtype=np.int64) % 2
            red, piv = exactlin.rref_mod_p(mat.copy(), 2)
            red = red[:len(piv)]

            def member(v):
                x = v % 2
                for r, pc in zip(red, piv):
                    if x[pc]:
                        x = (x + r) % 2
                return not x.any()

            ok = all(member(ctx.conv_vec(mat[i], mat[j]))
                     for i in range(mat.shape[0])
                     for j in range(mat.shape[0]))
            if ok:
                closed.append(mat)
        assert len(closed) == 29

        qc_keys = set()
        for mat in closed:
            b = Basis(ctx)
            for row in mat:
                b.extend(ctx.el_of_vec(row))
            if inc.classify(ctx, b).quasi_cartan:
                qc_keys.add(b.key())
        assert len(qc_keys) == 5
        assert qc_keys == {b.key() for b in gal.algebras}


def test_criterion_04_purely_quasi_cartan_dichotomy(z3_f5, z2_f3):
    with budget(1800):
        rep_z3 = inc.pqc_scan(z3_f5)
        assert not rep_z3["clean"]
        w = z3_f5.delta(1) + z3_f5.delta(2)
        bad = algebra_closure(z3_f5, [w])
        assert bad.key() in {f["c_basis"].key() for f in rep_z3["failures"]}
        assert rep_z3["i2i"] is False
        assert rep_z3["i2i_agreement"] is True

        rep_z2 = inc.pqc_scan(z2_f3)
        assert rep_z2["clean"]
        assert rep_z2["i2i"] is True
        assert rep_z2["i2i_agreement"] is True

        ctx_sf = make_context(gpd.sign_flip_groupoid(2),
                              coeff.Ring(coeff.PRIME_FIELD, 3))
        rep_sf = inc.pqc_scan(ctx_sf)
        assert rep_sf["generator_space"] == 3 ** 10
        assert rep_sf["i2i"] is True
        # The stated expectation is a clean scan on this isolated-order-two
        # groupoid.  The singly-generated net refutes it: closures such as
        # span(D + one directed off-unit arrow) are intermediate subalgebras
        # with no partner for the generator inside them, hence not regular.
        # 24 of the 32 distinct closures fail that way, so the scan verdict
        # cannot agree with the i2i predicate at this scope.
        assert rep_sf["clean"], (
            "sign-flip scan is not clean: "
            f"{rep_sf['failure_count']} of {rep_sf['distinct_closures']} "
            "singly-generated closures are not quasi-Cartan (one-directed "
            "arrow spans are intermediate but not regular), "
            f"i2i_agreement={rep_sf['i2i_agreement']}")
        assert rep_sf["i2i_agreement"] is True


def test_criterion_05_two_arrows_obstruction(k2xz2_f3):
    with budget(1):
        c, proof = inc.counterexample_two_arrows(k2xz2_f3)
        assert proof["f_square_zero"]
        assert proof["basis_values_equal"]
        assert proof["delta_arrow_outside"]
        assert proof["classification"].verdict == "not-quasi-Cartan"


def test_criterion_06_reconstruction():
    groupoids = [gpd.pair_groupoid(2), gpd.pair_groupoid(3),
                 gpd.from_group(gpd.cyclic_table(2))]
    rings = [coeff.Ring(coeff.PRIME_FIELD, 2), coeff.Ring(coeff.PRIME_FIELD, 3)]
    for g in groupoids:
        for r in rings:
            t0 = time.perf_counter()
            ctx = Context(g, r)
            rep = nz.phi_check(ctx)
            assert rep["reconstructed"], (g.label, str(r))
            assert rep["total_size_matches"]
            assert rep["ultrafilter_count"] == len(r.units()) * g.num_arrows
            assert time.perf_counter() - t0 < 120


def test_criterion_07_averaging():
    with budget(10):
        for ring in (coeff.Ring(coeff.RATIONALS),
                     coeff.Ring(coeff.PRIME_FIELD, 5)):
            ctx = make_context(gpd.pair_groupoid(3), ring)
            rng = random.Random(7)
            for _ in range(100):
                f = ctx.random_element(rng)
                avg, _ = exp_mod.average_expectation(ctx, f)
                assert avg == ctx.delta_expectation(f)


def test_criterion_08_averaging_obstruction(z2_f3):
    with budget(60):
        f = z2_f3.element({0: 1, 1: 1})
        proof = exp_mod.averaging_obstruction(
            z2_f3, f, n_random=200, max_family_size=2)
        assert proof["proportionality_verified"]
        assert proof["random_trials"] == 200
        assert proof["families_checked"] == 12
        assert proof["exhaustive_none_reproduces"]


def test_criterion_09_bimodule_spectral(pair3_f3, z2_f3):
    with budget(30):
        rng = random.Random(13)
        for _ in range(100):
            c = pair3_f3.random_element(rng)
            if c.is_zero():
                continue
            assert inc.bimodule_spectral(pair3_f3, c)["spectral"]
        rep = inc.bimodule_spectral(z2_f3, z2_f3.element({0: 1, 1: 1}))
        assert rep["verdict"] == "synthesis fails"
        wit = rep["witness"]
        assert wit["proportional_on_basis"] is True


def test_criterion_10_twisted_arithmetic():
    with budget(120):
        r = coeff.Ring(coeff.PRIME_FIELD, 3)
        g = gpd.from_group(KLEIN_TABLE)
        omega = klein_bicharacter(g, r)
        ok, msg = omega.validate()
        assert ok, msg
        assert not omega.is_trivial()
        ctx = Context(g, r, omega)

        deltas = ctx.basis_deltas()
        for a in deltas:
            for b in deltas:
                for c in deltas:
                    assert (a * b) * c == a * (b * c)

        # every bisection of a group is a single arrow; check the closed-form
        # partner against the brute-force search for every unit coefficient
        for arrow in range(4):
            for lam in (1, 2):
                n = ctx.delta(arrow, lam)
                k = nz.dagger_closed_form(ctx, n)
                assert k is not None
                assert oracle.exhaustive_partners(ctx, n) == [k]


def test_criterion_11_coefficient_audit():
    with budget(10):
        f5 = coeff.Ring(coeff.PRIME_FIELD, 5)
        for n in (3, 4, 5):
            ctx = make_context(gpd.from_group(gpd.cyclic_table(n)), f5)
            _, proof = inc.counterexample_bad_apple(ctx)
            assert proof["closure_confirmed"]
            assert proof["off_coefficient_is_n_minus_2"] is True
            assert proof["off_coefficient_is_n_minus_1"] is False
            assert proof["sigma_square_off_unit_coefficient"] == str((n - 2) % 5)
