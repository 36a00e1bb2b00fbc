import random

import pytest

from cartan_lab import coeff, inclusions as inc
from cartan_lab import groupoid as gpd
from cartan_lab.errors import InputError
from cartan_lab.steinberg import Context, algebra_closure

import normalizer_oracle as oracle
from expectation_oracle import expectation_onto_subalgebra
from conftest import make_context, oracle_context


@pytest.fixture(scope="module")
def ex_c(z3_f5):
    w = z3_f5.delta(1) + z3_f5.delta(2)
    return algebra_closure(z3_f5, [w])


# -- classification ----------------------------------------------------------

@pytest.mark.parametrize("name", ["z2/F3", "z3/F5", "z4/F5", "z6/F3", "klein/F5",
                                  "klein/F3 twisted", "k2xz2/F3 twisted",
                                  "iso(pair2+pair1,Z3)/F3"])
def test_classify_matches_the_forced_scan_path(name):
    """Counting the commutative isotropy corners and searching them for the
    first failures reports what scanning every corner reports, byte for
    byte, on the full algebra and on every singly generated closure."""
    ctx = oracle_context(name)
    closures, _ = inc.singly_generated_closures(ctx)
    for c in [None] + [c for c, _ in closures.values()]:
        assert inc.classify(ctx, c).to_json() == oracle.scan_classify(ctx, c).to_json()


def generator_closures(ctx):
    """singly_generated_closures the long way: the closure of every monic
    generator, in order, each key kept with its first generator."""
    closures: dict = {}
    scanned = 0
    for gen in inc.monic_off_generators(ctx):
        scanned += 1
        c = inc.diagonal_basis(ctx) if gen.is_zero() else algebra_closure(ctx, [gen])
        closures.setdefault(c.key(), (c, gen))
    return closures, scanned


@pytest.mark.parametrize("name", ["pair3/F2", "pair3/F3", "pair4/F2", "pair3/F3 twisted"])
def test_support_scan_matches_the_generator_scan(name):
    """On a principal groupoid the supports are walked, not the generators:
    each closure keeps its first generator, in the same order, and the
    count scanned is still the number of generators."""
    ctx = oracle_context(name)
    got, scanned = inc.singly_generated_closures(ctx)
    want, want_scanned = generator_closures(ctx)
    assert scanned == want_scanned
    assert [(k, gen) for k, (_, gen) in got.items()] == [(k, gen) for k, (_, gen) in want.items()]
    assert all(c.key() == k for k, (c, _) in got.items())


def test_pqc_scan_reaches_pair4_f3_under_the_default_guard():
    rep = inc.pqc_scan(oracle_context("pair4/F3"))
    assert rep["generators_scanned"] == (3 ** 12 - 1) // 2 + 1 == 265_721
    assert rep["distinct_closures"] == 355
    assert rep["failure_count"] == 340


def test_classify_principal_full(pair3_f3):
    rep = inc.classify(pair3_f3)
    assert rep.verdict == "ADP"
    assert rep.quasi_cartan
    assert all(rep.flags[k] for k in inc.FLAG_NAMES)
    assert rep.dims["C"] == 9


def test_classify_group_algebra(z2_f3):
    rep = inc.classify(z2_f3)
    assert rep.verdict == "AQP"
    assert rep.flags["LBH"]
    assert rep.flags["delta_idempotent_implemented"]
    assert not rep.flags["maximal_abelian"]
    assert not rep.flags["free_span"]


def test_classify_weakly_torsion_free_failure():
    ctx = make_context(gpd.pair_groupoid(2), coeff.Ring(coeff.INT_MOD_M, 6))
    rep = inc.classify(ctx)
    assert rep.verdict == "not-quasi-Cartan"
    assert rep.flags["WT"] is False
    assert rep.witnesses["WT"] == [2, 3]
    # 2*3 = 0 with e = 3 idempotent: the span flags cannot even be posed
    assert rep.flags["maximal_abelian"] is None
    assert any("skipped" in note for note in rep.notes)


def test_classify_proper_subalgebra_with_invertible_generator(z3_f5, ex_c):
    # span{delta_0, delta_1 + delta_2} is regular (the generator normalizes)
    # but no idempotent of C implements the diagonal projection
    rep = inc.classify(z3_f5, ex_c)
    assert rep.verdict == "not-quasi-Cartan"
    assert rep.flags["regular"] is True
    assert rep.flags["delta_faithful"] is True
    assert rep.flags["delta_idempotent_implemented"] is False
    assert rep.flags["LBH"] is False
    assert rep.dims["C"] == 2
    assert rep.dims["normalizer_span"] == 2


def test_classify_flag_implications(pair3_f3, z2_f3, z3_f5, ex_c):
    # ADP implies ACP implies AQP in flag form:
    # free_span => maximal_abelian => delta_idempotent_implemented
    reports = [inc.classify(pair3_f3), inc.classify(z2_f3),
               inc.classify(z3_f5), inc.classify(z3_f5, ex_c)]
    for rep in reports:
        if rep.flags["free_span"]:
            assert rep.flags["maximal_abelian"]
        if rep.flags["maximal_abelian"]:
            assert rep.flags["delta_idempotent_implemented"]


def test_classify_verdict_ordering(pair3_f3):
    assert inc.QC_VERDICTS == ("AQP", "ACP", "ADP")
    rep = inc.classify(pair3_f3)
    assert rep.to_json()["verdict"] == "ADP"


def test_subalgebra_rejected_over_non_field():
    ctx = make_context(gpd.pair_groupoid(2), coeff.Ring(coeff.INT_MOD_M, 6))
    with pytest.raises(InputError):
        inc.classify(ctx, inc.diagonal_basis(make_context(
            gpd.pair_groupoid(2), coeff.Ring(coeff.PRIME_FIELD, 3))))


# -- the lattice correspondence ----------------------------------------------

def test_galois_pair3_f2(pair3_f2):
    rep = inc.galois(pair3_f2)
    assert (len(rep.wides), len(rep.algebras)) == (5, 5)
    assert rep.verdict == "match"
    assert rep.mutually_inverse
    assert rep.order_isomorphism
    assert rep.meet_matches
    assert rep.join_matches
    # the round trips are identity permutations
    assert rep.wide_of_algebra[rep.algebra_of_wide[0]] == 0
    for i in range(5):
        assert rep.wide_of_algebra[rep.algebra_of_wide[i]] == i


@pytest.mark.parametrize("name", ["z3/F5", "klein/F3"])
def test_galois_classifies_each_span_once(name, monkeypatch):
    # a span a meet or a join brings back is classified again only if
    # galois forgets the verdict; rejected spans come back on both contexts
    keys = []
    classify = inc.classify

    def recording(ctx, c_basis=None, guard=inc.SCAN_GUARD):
        keys.append(c_basis.key())
        return classify(ctx, c_basis, guard)

    monkeypatch.setattr(inc, "classify", recording)
    inc.galois(oracle_context(name))
    assert len(keys) == len(set(keys)) == {"z3/F5": 3, "klein/F3": 15}[name]


def test_galois_group_z2(z2_f3):
    rep = inc.galois(z2_f3)
    assert (len(rep.wides), len(rep.algebras)) == (2, 2)
    assert rep.verdict == "match"


def test_galois_json_shape(z2_f3):
    data = inc.galois(z2_f3).to_json()
    assert data["verdict"] == "match"
    assert data["intermediate_count"] == 2
    assert sorted(data["algebra_dims"]) == [1, 2]
    assert data["scope"] == "singly-generated plus lattice saturation"


# -- the purely-quasi-Cartan scan --------------------------------------------

def test_pqc_scan_clean_for_order_two_isotropy(z2_f3):
    rep = inc.pqc_scan(z2_f3)
    assert rep["clean"]
    assert rep["failure_count"] == 0
    assert rep["i2i"] is True
    assert rep["i2i_agreement"] is True
    assert rep["verdict"].startswith("purely quasi-Cartan")
    assert rep["scope"] == "singly-generated"


def test_pqc_scan_fails_for_order_three_isotropy(z3_f5, ex_c):
    rep = inc.pqc_scan(z3_f5)
    assert not rep["clean"]
    assert rep["failure_count"] > 0
    assert rep["i2i"] is False
    assert rep["i2i_agreement"] is True
    # the catalogued failure span{delta_0, delta_1+delta_2} is among them
    keys = {f["c_basis"].key() for f in rep["failures"]}
    assert ex_c.key() in keys
    for f in rep["failures"]:
        assert f["failing_flags"]
        assert f["dim"] >= 2


def test_pqc_scan_sees_one_directed_closures(pair3_f2):
    # the singly-generated net contains spans like D + F2*delta_(1->0) that
    # never pick up the reverse arrow; those are intermediate but not regular,
    # so even this principal groupoid does not scan clean
    rep = inc.pqc_scan(pair3_f2)
    assert not rep["clean"]
    assert rep["failure_count"] == 24
    assert rep["distinct_closures"] == 29
    assert rep["i2i"] is True
    assert rep["i2i_agreement"] is False
    for f in rep["failures"]:
        assert "regular" in f["failing_flags"]


def test_pqc_scan_refuses_rationals():
    ctx = make_context(gpd.pair_groupoid(2), coeff.Ring(coeff.RATIONALS))
    with pytest.raises(InputError):
        inc.pqc_scan(ctx)


# -- explicit obstructions ---------------------------------------------------

def test_two_arrows_counterexample(k2xz2_f3):
    c, proof = inc.counterexample_two_arrows(k2xz2_f3)
    assert proof["f_square_zero"]
    assert proof["basis_values_equal"]
    assert proof["delta_arrow_outside"]
    rep = proof["classification"]
    assert not rep.quasi_cartan
    g1, g2 = proof["arrows"]
    assert g1 != g2
    u, v = proof["unit_pair"]
    assert u != v
    # the generator really is the sum of the two parallel arrows
    assert set(proof["f"].coeffs) == {g1, g2}


def test_two_arrows_needs_parallel_arrows(pair3_f3):
    with pytest.raises(InputError):
        inc.counterexample_two_arrows(pair3_f3)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_bad_apple_coefficient_audit(n):
    ctx = make_context(gpd.from_group(gpd.cyclic_table(n)),
                       coeff.Ring(coeff.PRIME_FIELD, 5))
    c, proof = inc.counterexample_bad_apple(ctx)
    assert proof["isotropy_order"] == n
    assert proof["off_coefficient_is_n_minus_2"] is True
    assert proof["off_coefficient_is_n_minus_1"] is False
    assert proof["sigma_square_unit_coefficient"] == str((n - 1) % 5)
    assert proof["reach_strictly_larger"]
    assert not proof["classification"].quasi_cartan


def test_bad_apple_pullback_through_larger_groupoid():
    base = gpd.disjoint_union([gpd.pair_groupoid(2), gpd.pair_groupoid(1)])
    g = gpd.attach_isotropy(base, 2, gpd.cyclic_table(3))
    ctx = make_context(g, coeff.Ring(coeff.PRIME_FIELD, 5))
    c, proof = inc.counterexample_bad_apple(ctx)
    assert proof["unit"] == 2
    assert proof["c_dim"] == 6
    assert proof["reach_size"] == g.num_arrows
    assert not proof["classification"].quasi_cartan


def test_bad_apple_needs_order_three(z2_f3):
    with pytest.raises(InputError):
        inc.counterexample_bad_apple(z2_f3)


# -- bimodule closures -------------------------------------------------------

def test_bimodule_spectral_on_principal(pair3_f3):
    rng = random.Random(17)
    for _ in range(20):
        c = pair3_f3.random_element(rng)
        if c.is_zero():
            continue
        rep = inc.bimodule_spectral(pair3_f3, c)
        assert rep["spectral"]
        assert rep["verdict"] == "spectral"
        assert rep["dim"] == rep["support_size"]


def test_bimodule_synthesis_failure(z2_f3):
    c = z2_f3.element({0: 1, 1: 1})
    rep = inc.bimodule_spectral(z2_f3, c)
    assert not rep["spectral"]
    assert rep["verdict"] == "synthesis fails"
    wit = rep["witness"]
    assert wit["proportional_on_basis"] is True
    assert wit["arrow"] == 1 and wit["unit"] == 0


def test_bimodule_block_decomposition_dims(k2xz2_f3):
    # the two parallel arrows span one block but only one dimension
    g = k2xz2_f3.groupoid
    a, b = g.arrows_between(0, 1)
    c = k2xz2_f3.delta(a) + k2xz2_f3.delta(b)
    rep = inc.bimodule_spectral(k2xz2_f3, c)
    assert not rep["spectral"]
    assert rep["dim"] < rep["support_size"]


# -- conditional expectations ------------------------------------------------

def test_restriction_to_diagonal_is_delta(pair3_f3):
    g = pair3_f3.groupoid
    h = frozenset(int(u) for u in g.units())
    e, rep = expectation_onto_subalgebra(pair3_f3, h_arrows=h)
    assert rep["conditional_expectation"]
    assert rep["faithful"]
    rng = random.Random(3)
    for _ in range(10):
        f = pair3_f3.random_element(rng)
        assert e(f) == pair3_f3.delta_expectation(f)


def test_restrictions_to_all_wides_are_expectations(pair3_f3):
    for h in pair3_f3.groupoid.wide_subgroupoids():
        e, rep = expectation_onto_subalgebra(pair3_f3, h_arrows=h)
        assert rep["conditional_expectation"]
        assert rep["mode"] == "restriction"
        assert rep["faithful"]


def test_expectation_images_on_principal_are_quasi_cartan(pair3_f3):
    # an expectation with an intermediate image forces the image to carry
    # the diagonal as a maximal abelian subalgebra on principal groupoids
    for h in pair3_f3.groupoid.wide_subgroupoids():
        target = inc.subgroupoid_algebra(pair3_f3, h)
        rep = inc.classify(pair3_f3, target)
        assert rep.quasi_cartan
        assert rep.flags["maximal_abelian"]


def test_restriction_refuses_non_subgroupoid(pair3_f3):
    with pytest.raises(InputError):
        expectation_onto_subalgebra(pair3_f3, h_arrows={0, 1, 2, 3})


def test_averaged_isotropy_expectation(z3_f5, ex_c):
    e, rep = expectation_onto_subalgebra(z3_f5, c_basis=ex_c)
    assert rep["mode"] == "averaged isotropy"
    assert rep["conditional_expectation"]
    assert rep["faithful"]
    assert rep["isotropy_order"] == 3
    f = z3_f5.element({0: 1, 1: 2, 2: 4})
    assert e(f) == z3_f5.element({0: 1, 1: 3, 2: 3})
    # it is not the restriction map: restriction would keep 2@1 + 4@2
    assert e(f) != z3_f5.element({0: 1, 1: 2, 2: 4})


def test_expectation_argument_shapes(z3_f5, ex_c):
    with pytest.raises(InputError):
        expectation_onto_subalgebra(z3_f5)
    with pytest.raises(InputError):
        expectation_onto_subalgebra(z3_f5, h_arrows=[0], c_basis=ex_c)
