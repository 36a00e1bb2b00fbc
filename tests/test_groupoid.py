import itertools
from collections import Counter

import numpy as np
import pytest

from cartan_lab import groupoid as gpd
from cartan_lab.errors import GuardExceeded, InputError

from conftest import K2XZ2_PERMS, KLEIN_TABLE


def test_pair_groupoid_counts():
    g = gpd.pair_groupoid(3)
    assert g.n_units == 3
    assert g.num_arrows == 9
    ok, msg = g.validate()
    assert ok, msg
    assert g.is_principal()
    # units come first and are their own endpoints
    for u in g.units():
        assert g.is_unit(u)
        assert int(g.src[u]) == u == int(g.tgt[u])


def test_pair_groupoid_has_one_arrow_per_ordered_pair():
    g = gpd.pair_groupoid(4)
    for v in range(4):
        for w in range(4):
            assert len(g.arrows_between(v, w)) == 1


def test_group_as_one_unit_groupoid():
    g = gpd.from_group(gpd.cyclic_table(5))
    assert g.n_units == 1
    assert g.num_arrows == 5
    assert not g.is_principal()
    ok, msg = g.validate()
    assert ok, msg


def test_group_table_without_identity_rejected():
    with pytest.raises(InputError):
        gpd.from_group([[1, 0], [1, 0]])


def test_composition_axioms_exhaustive():
    for g in (gpd.pair_groupoid(3), gpd.from_group(gpd.cyclic_table(4)),
              gpd.sign_flip_groupoid(2)):
        n = g.num_arrows
        for a in range(n):
            for b in range(n):
                defined = int(g.src[a]) == int(g.tgt[b])
                assert (g.comp[a, b] >= 0) == defined
        for a in range(n):
            ia = int(g.inv[a])
            assert int(g.comp[a, ia]) == int(g.tgt[a])
            assert int(g.comp[ia, a]) == int(g.src[a])


def test_action_groupoid_two_parallel_arrows():
    g = gpd.from_action(KLEIN_TABLE, K2XZ2_PERMS)
    assert g.n_units == 2
    assert g.num_arrows == 8
    ok, msg = g.validate()
    assert ok, msg
    # exactly two arrows in every hom set; two distinct units joined by two
    # arrows rule out the isolated-isotropy property
    for v in range(2):
        for w in range(2):
            assert len(g.arrows_between(v, w)) == 2
    assert not g.is_principal()
    assert not g.is_i2i()


def test_action_groupoid_rejects_non_permutation():
    with pytest.raises(InputError):
        gpd.from_action(gpd.cyclic_table(2), [[0, 1], [0, 0]])


def test_sign_flip_shape():
    g = gpd.sign_flip_groupoid(2)
    assert g.n_units == 5
    assert g.num_arrows == 10
    # the centre point carries the only nontrivial isotropy
    sizes = Counter(int(g.src[a]) for a in [*g.units(), *g.iso_arrows()])
    assert sorted(sizes.values()) == [1, 1, 1, 1, 2]
    assert not g.is_principal()
    assert g.is_i2i()


def test_disjoint_union_validates():
    g = gpd.disjoint_union([gpd.pair_groupoid(2), gpd.from_group(gpd.cyclic_table(3))])
    assert g.n_units == 3
    assert g.num_arrows == 7
    ok, msg = g.validate()
    assert ok, msg
    assert not g.is_principal()


def test_attach_isotropy_needs_an_isolated_unit():
    with pytest.raises(InputError):
        gpd.attach_isotropy(gpd.pair_groupoid(2), 1, gpd.cyclic_table(3))


def test_attach_isotropy_at_isolated_unit():
    base = gpd.disjoint_union([gpd.pair_groupoid(2), gpd.pair_groupoid(1)])
    g = gpd.attach_isotropy(base, 2, gpd.cyclic_table(3))
    ok, msg = g.validate()
    assert ok, msg
    assert g.n_units == 3
    assert g.num_arrows == 7
    assert len(g.arrows_between(2, 2)) == 3
    assert len(g.arrows_between(0, 0)) == 1


def test_wide_subgroupoids_pair3():
    g = gpd.pair_groupoid(3)
    wides = g.wide_subgroupoids()
    # one per partition of the three units
    assert len(wides) == 5
    for h in wides:
        assert g.is_wide_subgroupoid(frozenset(h))


def test_wide_subgroupoids_group_z2():
    g = gpd.from_group(gpd.cyclic_table(2))
    wides = g.wide_subgroupoids()
    assert len(wides) == 2


def test_close_arrow_set_is_a_closure():
    g = gpd.pair_groupoid(3)
    units = set(g.units())
    seed = units | {3}
    closed = g.close_arrow_set(seed)
    assert g.is_wide_subgroupoid(closed)
    assert closed == g.close_arrow_set(closed)
    assert seed <= closed


def fixed_point_closure(g, seed, inverses):
    """Add every product of two members (and every inverse, if asked) until
    a pass adds nothing."""
    members = set(seed)
    while True:
        grown = set(members)
        for a in members:
            if inverses:
                grown.add(int(g.inv[a]))
            for b in members:
                if g.comp[a, b] >= 0:
                    grown.add(int(g.comp[a, b]))
        if grown == members:
            return frozenset(members)
        members = grown


SMALL_GROUPOIDS = pytest.mark.parametrize("g", [
    gpd.pair_groupoid(3), gpd.pair_groupoid(4), gpd.sign_flip_groupoid(2),
    gpd.from_action(KLEIN_TABLE, K2XZ2_PERMS),
    gpd.attach_isotropy(gpd.disjoint_union([gpd.pair_groupoid(2), gpd.pair_groupoid(1)]),
                        2, gpd.cyclic_table(3)),
    gpd.from_group(gpd.cyclic_table(6)),
], ids=["pair3", "pair4", "sign_flip2", "k2xz2", "iso", "z6"])


@SMALL_GROUPOIDS
def test_closures_match_the_fixed_point_loop(g):
    rng = np.random.default_rng(7)
    for _ in range(30):
        seed = rng.choice(g.num_arrows, size=rng.integers(0, 4), replace=False).tolist()
        assert g.compose_closure(seed) == fixed_point_closure(g, seed, False)
        assert g.close_arrow_set(seed) == fixed_point_closure(g, [*g.units(), *seed], True)


def pairwise_is_wide(g, members) -> bool:
    """The definition: members hold every unit, the inverse of each member
    and every defined product of two members."""
    if not set(g.units()) <= members:
        return False
    for a in members:
        if int(g.inv[a]) not in members:
            return False
        for b in members:
            c = g.comp[a, b]
            if c >= 0 and int(c) not in members:
                return False
    return True


@SMALL_GROUPOIDS
def test_is_wide_subgroupoid_matches_the_pairwise_definition(g):
    offs = list(g.off_units())
    for bits in itertools.product((0, 1), repeat=len(offs)):
        chosen = {a for a, bit in zip(offs, bits) if bit}
        for members in (frozenset(chosen), frozenset(chosen) | frozenset(g.units())):
            assert g.is_wide_subgroupoid(members) == pairwise_is_wide(g, members), sorted(members)


def test_a_nested_build_validates_its_user_tables_and_its_result(monkeypatch):
    checked = []
    validate = gpd.Groupoid.validate
    monkeypatch.setattr(gpd.Groupoid, "validate",
                        lambda self: checked.append(self.label) or validate(self))
    g = gpd.build_from_json({"kind": "attach_isotropy", "unit": 4,
                             "group_table": gpd.cyclic_table(4),
                             "base": {"kind": "disjoint_union",
                                      "parts": [{"kind": "pair", "n": 4},
                                                {"kind": "pair", "n": 1}]}})
    assert checked == ["group", "disjoint_union+iso@4"]
    assert g.num_arrows == 20


def restrict(g, units):
    """Restriction of g to an invariant set of units.  Returns (groupoid,
    arrow_map) where arrow_map sends old arrow ids to new ones."""
    x = set(units)
    for a in range(g.num_arrows):
        if (g.src[a] in x) != (g.tgt[a] in x):
            raise InputError(f"unit set not invariant: arrow {a} crosses the boundary")
    keep = [a for a in range(g.num_arrows) if g.src[a] in x]
    keep.sort(key=lambda a: (0 if g.is_unit(a) else 1, a))
    old_units = [a for a in keep if g.is_unit(a)]
    unit_renum = {u: i for i, u in enumerate(old_units)}
    arrow_map = {a: i for i, a in enumerate(keep)}
    n = len(keep)
    src = np.array([unit_renum[int(g.src[a])] for a in keep], dtype=np.int64)
    tgt = np.array([unit_renum[int(g.tgt[a])] for a in keep], dtype=np.int64)
    comp = -np.ones((n, n), dtype=np.int64)
    for i, a in enumerate(keep):
        for j, b in enumerate(keep):
            c = g.comp[a, b]
            if c >= 0:
                comp[i, j] = arrow_map[int(c)]
    inv = np.array([arrow_map[int(g.inv[a])] for a in keep], dtype=np.int64)
    sub = gpd.Groupoid(len(old_units), src, tgt, comp, inv, label=f"{g.label}|restricted")
    return sub, arrow_map


def test_restrict_to_invariant_units():
    g = gpd.disjoint_union([gpd.pair_groupoid(2), gpd.from_group(gpd.cyclic_table(3))])
    sub, arrow_map = restrict(g, [0, 1])
    ok, msg = sub.validate()
    assert ok, msg
    assert sub.n_units == 2
    assert sub.num_arrows == 4
    assert len(arrow_map) == 4
    # a transitive groupoid has no proper invariant unit sets
    with pytest.raises(InputError):
        restrict(gpd.pair_groupoid(3), [0, 1])


@pytest.mark.parametrize("data, arrows", [
    ({"build": {"kind": "pair", "n": 46}}, 46 * 46),
    ({"build": {"kind": "cyclic_group", "n": 2049}}, 2049),
    ({"build": {"kind": "group", "table": [[0]] * 2049}}, 2049),
    ({"build": {"kind": "action", "group_table": [[0, 1], [1, 0]],
                "perms": [list(range(1025))] * 2}}, 2050),
    ({"build": {"kind": "sign_flip", "radius": 512}}, 2050),
    ({"build": {"kind": "disjoint_union", "parts": [{"kind": "pair", "n": 32}] * 3}}, 3072),
    ({"build": {"kind": "attach_isotropy", "unit": 0, "group_table": gpd.cyclic_table(10),
                "base": {"kind": "disjoint_union", "parts": [{"kind": "pair", "n": 1}] * 2040}}},
     2049),
    ({"units": 1, "arrows": [{}] * 2049, "comp": [], "inv": []}, 2049),
], ids=["pair", "cyclic_group", "group", "action", "sign_flip", "disjoint_union",
        "attach_isotropy", "explicit"])
def test_every_builder_refuses_an_oversized_table(data, arrows):
    assert arrows ** 2 > gpd.MAX_TABLE_ENTRIES >= 1500 ** 2
    with pytest.raises(GuardExceeded) as exc:
        gpd.from_json(data)
    assert (exc.value.what, exc.value.measured) == ("groupoid table entries", arrows ** 2)


def test_json_roundtrip_explicit_tables():
    g = gpd.from_action(KLEIN_TABLE, K2XZ2_PERMS)
    g.build_json = None  # force the explicit-table encoding
    data = g.to_json()
    h = gpd.from_json(data)
    assert h.num_arrows == g.num_arrows
    assert np.array_equal(h.comp, g.comp)
    assert np.array_equal(h.inv, g.inv)


def loop_pair_groupoid(n):
    """The pair groupoid built entry by entry: units (u, u) first, then the
    pairs (i, j) with i != j in row-major order."""
    ids = {(u, u): u for u in range(n)}
    for i in range(n):
        for j in range(n):
            if i != j:
                ids[(i, j)] = len(ids)
    total = len(ids)
    src = np.zeros(total, dtype=np.int64)
    tgt = np.zeros(total, dtype=np.int64)
    comp = -np.ones((total, total), dtype=np.int64)
    inv = np.zeros(total, dtype=np.int64)
    for (i, j), a in ids.items():
        tgt[a], src[a], inv[a] = i, j, ids[(j, i)]
        for (k, l), b in ids.items():
            if j == k:
                comp[a, b] = ids[(i, l)]
    return src, tgt, comp, inv


@pytest.mark.parametrize("n", range(1, 8))
def test_pair_groupoid_matches_the_loop_builder(n):
    g = gpd.pair_groupoid(n)
    assert g.n_units == n
    for got, want in zip((g.src, g.tgt, g.comp, g.inv), loop_pair_groupoid(n)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_json_roundtrip_build_spec():
    g = gpd.build_from_json({"kind": "pair", "n": 3})
    data = g.to_json()
    assert data == {"build": {"kind": "pair", "n": 3}}
    h = gpd.from_json(data)
    assert h.num_arrows == 9


def test_invalid_tables_are_refused():
    with pytest.raises(InputError):
        gpd.from_json({"units": 1,
                       "arrows": [{"id": 0, "src": 0, "tgt": 0},
                                  {"id": 1, "src": 0, "tgt": 0}],
                       "comp": [[0, 0, 0], [0, 1, 1], [1, 0, 1]],
                       "inv": [0, 1]})
