import pytest

from cartan_lab import coeff, twist
from cartan_lab import groupoid as gpd
from cartan_lab.errors import InputError

import normalizer_oracle as oracle
from conftest import KLEIN_TABLE, klein_bicharacter


def klein():
    return gpd.from_group(KLEIN_TABLE, label="klein")


def test_trivial_cocycle_validates():
    g = gpd.pair_groupoid(3)
    r = coeff.Ring(coeff.PRIME_FIELD, 3)
    c = twist.trivial_cocycle(g, r)
    ok, msg = c.validate()
    assert ok, msg
    assert c.is_trivial()


def test_bicharacter_is_a_normalized_cocycle():
    r = coeff.Ring(coeff.PRIME_FIELD, 3)
    c = klein_bicharacter(klein(), r)
    ok, msg = c.validate()
    assert ok, msg
    assert not c.is_trivial()


def test_bicharacter_is_not_symmetric():
    r = coeff.Ring(coeff.PRIME_FIELD, 3)
    c = klein_bicharacter(klein(), r)
    vals = {(a, b): c.omega(a, b) for a in range(4) for b in range(4)}
    assert any(vals[(a, b)] != vals[(b, a)] for a in range(4) for b in range(4))


def test_normalization_violation_rejected():
    g = klein()
    r = coeff.Ring(coeff.PRIME_FIELD, 3)
    c = twist.Cocycle(g, r, {(0, 1): r.normalize(2)})
    ok, msg = c.validate()
    assert not ok
    assert "normalization" in msg


def test_cocycle_identity_violation_rejected():
    g = klein()
    r = coeff.Ring(coeff.PRIME_FIELD, 5)
    # a single sporadic entry cannot satisfy the 2-cocycle identity
    c = twist.Cocycle(g, r, {(1, 2): r.normalize(2)})
    ok, msg = c.validate()
    assert not ok


def test_non_unit_value_rejected():
    g = klein()
    z6 = coeff.Ring(coeff.INT_MOD_M, 6)
    c = twist.Cocycle(g, z6, {(1, 2): z6.normalize(2)})
    ok, msg = c.validate()
    assert not ok
    assert "unit" in msg


def test_omega_refuses_non_composable_pairs():
    g = gpd.pair_groupoid(2)
    r = coeff.Ring(coeff.PRIME_FIELD, 3)
    c = twist.trivial_cocycle(g, r)
    with pytest.raises(InputError):
        c.omega(2, 2)


def test_omega_inv_pair_symmetric():
    r = coeff.Ring(coeff.PRIME_FIELD, 3)
    g = klein()
    c = klein_bicharacter(g, r)
    for a in range(4):
        ia = int(g.inv[a])
        assert c.omega(a, ia) == c.omega(ia, a)


def test_sigma_total_size_and_projection():
    r = coeff.Ring(coeff.PRIME_FIELD, 3)
    g = klein()
    c = klein_bicharacter(g, r)
    sigma, pair_of, id_of, q = oracle.sigma_total(c)
    # one total arrow per (ring unit, groupoid arrow)
    assert sigma.num_arrows == len(r.units()) * g.num_arrows
    ok, msg = sigma.validate()
    assert ok, msg
    for i in range(sigma.num_arrows):
        t, a = pair_of[i]
        assert id_of[(t, a)] == i
        assert q[i] == a


def test_cocycle_json_roundtrip():
    r = coeff.Ring(coeff.PRIME_FIELD, 3)
    g = klein()
    c = klein_bicharacter(g, r)
    data = c.to_json()
    c2 = twist.cocycle_from_json(g, r, data)
    assert c2.table == c.table
