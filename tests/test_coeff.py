from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cartan_lab import coeff
from cartan_lab.errors import InputError


def test_parse_ring_forms():
    assert coeff.parse_ring("Q").kind == coeff.RATIONALS
    f5 = coeff.parse_ring("F5")
    assert f5.kind == coeff.PRIME_FIELD and f5.modulus == 5
    z6 = coeff.parse_ring("Z6")
    assert z6.kind == coeff.INT_MOD_M and z6.modulus == 6
    with pytest.raises(InputError):
        coeff.parse_ring("gf(9)")


def test_prime_field_rejects_composite_modulus():
    with pytest.raises(InputError):
        coeff.Ring(coeff.PRIME_FIELD, 6)


def test_field_flags():
    assert coeff.Ring(coeff.RATIONALS).is_field
    assert coeff.Ring(coeff.PRIME_FIELD, 3).is_field
    assert not coeff.Ring(coeff.INT_MOD_M, 6).is_field
    assert not coeff.Ring(coeff.RATIONALS).is_finite


def test_inverses_mod_p():
    f7 = coeff.Ring(coeff.PRIME_FIELD, 7)
    for a in range(1, 7):
        inv = f7.try_inv(a)
        assert f7.mul(a, inv) == 1
    assert f7.try_inv(0) is None


def test_inverses_z6():
    z6 = coeff.Ring(coeff.INT_MOD_M, 6)
    assert sorted(z6.units()) == [1, 5]
    assert z6.try_inv(2) is None
    assert z6.mul(5, z6.try_inv(5)) == 1


def test_idempotents_z6():
    z6 = coeff.Ring(coeff.INT_MOD_M, 6)
    assert sorted(z6.idempotents()) == [0, 1, 3, 4]


def test_wt_z6_witness_is_2_3():
    # first witness under the ascending lambda-then-idempotent scan
    ok, witness = coeff.Ring(coeff.INT_MOD_M, 6).wt_check()
    assert not ok
    assert witness == (2, 3)


def test_wt_fields_pass():
    for ring in (coeff.Ring(coeff.RATIONALS), coeff.Ring(coeff.PRIME_FIELD, 5)):
        ok, witness = ring.wt_check()
        assert ok and witness is None


def scan_wt(ring):
    """The definition, scanned: the first (lam, e) with lam * e = 0."""
    idems = [e for e in ring.idempotents() if e != 0]
    for lam in range(1, ring.modulus):
        for e in idems:
            if ring.mul(lam, e) == 0:
                return False, (lam, e)
    return True, None


def test_wt_agrees_with_the_scan():
    for m in (2, 3, 5, 7):
        ring = coeff.Ring(coeff.PRIME_FIELD, m)
        assert ring.wt_check() == scan_wt(ring) == (True, None)
    for m in (4, 6, 8, 9, 12):
        ring = coeff.Ring(coeff.INT_MOD_M, m)
        assert ring.wt_check() == scan_wt(ring)


def test_wt_answers_a_large_field_without_scanning(monkeypatch):
    def no_scan(self, *args):
        raise AssertionError("wt_check scanned a field")

    monkeypatch.setattr(coeff.Ring, "idempotents", no_scan)
    monkeypatch.setattr(coeff.Ring, "mul", no_scan)
    assert coeff.Ring(coeff.PRIME_FIELD, 1000003).wt_check() == (True, None)


def test_prime_modulus_bound_is_the_int64_one():
    # the widest int64 intermediate over F_p is x - c*y with x, c, y < p
    p = coeff.MAX_PRIME_MODULUS
    assert (p - 1) ** 2 + (p - 1) <= 2**63 - 1 < p ** 2 + p


def test_parse_ring_refuses_a_field_past_the_bound_before_testing_primality(monkeypatch):
    def no_trial_division(n):
        raise AssertionError(f"primality of {n} tested past the bound")

    monkeypatch.setattr(coeff, "_is_prime", no_trial_division)
    with pytest.raises(InputError, match="exceeds 3037000500"):
        coeff.parse_ring("F2305843009213693951")
    with pytest.raises(InputError, match="exceeds"):
        coeff.parse_ring(f"F{coeff.MAX_PRIME_MODULUS + 1}")


def test_coeff_str_roundtrip():
    q = coeff.Ring(coeff.RATIONALS)
    v = Fraction(-3, 7)
    assert q.coeff_from_str(q.coeff_str(v)) == v
    f5 = coeff.Ring(coeff.PRIME_FIELD, 5)
    assert f5.coeff_from_str(f5.coeff_str(9)) == 4
    with pytest.raises(InputError):
        f5.coeff_from_str("x")


@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40))
def test_mod_arithmetic_is_a_commutative_ring(a, b, c):
    r = coeff.Ring(coeff.INT_MOD_M, 12)
    assert r.add(a, b) == r.add(b, a)
    assert r.mul(a, b) == r.mul(b, a)
    assert r.mul(a, r.add(b, c)) == r.add(r.mul(a, b), r.mul(a, c))
    assert r.add(a, r.neg(a)) == r.zero
    assert r.mul(a, r.one) == r.normalize(a)
