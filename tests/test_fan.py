import random

import pytest

from toricjac.errors import InputError
from toricjac.fan import (Fan, build_hirzebruch, build_p2, builtin_surface,
                          fan_from_json, validate)

from conftest import DP7_RAYS


def test_hirzebruch_normalization_order_and_labels():
    for r in range(4):
        fan = build_hirzebruch(r)
        assert fan.rays == ((1, 0), (0, 1), (-1, r), (0, -1))
        assert fan.labels == ("x3", "x2", "x1", "x4")


def test_p2_normalization():
    fan = build_p2()
    assert fan.rays == ((1, 0), (0, 1), (-1, -1))
    assert fan.labels == ("x1", "x2", "x3")


def test_builtin_names():
    assert builtin_surface("p1xp1").rays == builtin_surface("hirzebruch:0").rays
    assert builtin_surface("hirzebruch:3").rays[2] == (-1, 3)
    with pytest.raises(InputError):
        builtin_surface("hirzebruch:-1")
    with pytest.raises(InputError):
        builtin_surface("weird")


def test_validate_accepts_all_builtins():
    for name in ("p2", "p1xp1", "hirzebruch:1", "hirzebruch:5"):
        assert validate(builtin_surface(name).rays) == []
    assert validate(DP7_RAYS) == []


def test_validate_diagnostics():
    assert any("zero" in p for p in validate([(0, 0), (1, 0), (0, 1)]))
    assert any("not primitive" in p for p in validate([(2, 0), (0, 1), (-1, -1)]))
    assert any("fewer than 3" in p for p in validate([(1, 0), (0, 1)]))
    assert any("duplicate" in p for p in validate([(1, 0), (0, 1), (1, 0), (0, -1)]))
    # (1,1) with (-1,-1) spans a half-plane; the fan misses the other half
    assert any("incomplete" in p for p in validate([(1, 1), (0, 1), (-1, -1)]))
    # det 2 cone
    assert any("non-unimodular" in p
               for p in validate([(1, 0), (1, 2), (-1, 1), (0, -1)]))
    assert any("dimension 2" in p for p in validate([(1, 0, 0), (0, 1, 0)]))
    with pytest.raises(InputError):
        validate([1, (0, 1), (-1, -1)])
    # rays are sorted before the cone checks, so clockwise input is fine
    cw = [(0, 1), (1, 0), (0, -1), (-1, 0)]
    assert validate(cw) == []


def test_fan_constructor_rejects_bad_input():
    with pytest.raises(InputError):
        Fan([(1, 0), (0, 1)])
    with pytest.raises(InputError):
        Fan([(1, 0), (0, 1), (-1, -2)])
    with pytest.raises(InputError):
        Fan([(1, 0), (0, 1), (-1, -1)], labels=["a", "b"])


def test_custom_labels_follow_input_rays():
    fan = Fan([(-1, 1), (0, 1), (1, 0), (0, -1)], labels=["s", "t", "u", "v"])
    assert fan.rays == ((1, 0), (0, 1), (-1, 1), (0, -1))
    assert fan.labels == ("u", "t", "s", "v")


def test_self_intersections_hirzebruch():
    for r in range(4):
        fan = build_hirzebruch(r)
        assert fan.self_intersections() == (0, -r, 0, r)


def test_self_intersections_p2_and_dp7():
    assert build_p2().self_intersections() == (1, 1, 1)
    fan = fan_from_json({"rays": DP7_RAYS})
    assert fan.self_intersections() == (0, -1, -1, -1, 0)


def test_maximal_cones_are_adjacent_pairs():
    fan = build_hirzebruch(2)
    assert fan.maximal_cones == ((0, 1), (1, 2), (2, 3), (3, 0))


def test_irrelevant_generators():
    fan = build_hirzebruch(1)
    gens = {fan.monomial_label(e) for e in fan.irrelevant_generators()}
    assert gens == {"x1*x2", "x1*x4", "x2*x3", "x3*x4"}
    fan5 = fan_from_json({"rays": DP7_RAYS})
    gens5 = [fan5.monomial_label(e) for e in fan5.irrelevant_generators()]
    assert len(gens5) == 5
    assert all(g.count("*") == 2 for g in gens5)


def test_monomial_label_ordering():
    fan = build_hirzebruch(1)
    e = [0] * 4
    e[fan.position("x1")] = 2
    e[fan.position("x4")] = 1
    e[fan.position("x3")] = 3
    assert fan.monomial_label(tuple(e)) == "x1^2*x3^3*x4"
    assert fan.monomial_label((0, 0, 0, 0)) == "1"


def test_json_roundtrip_preserves_basis_id():
    fan = fan_from_json({"rays": DP7_RAYS})
    again = fan_from_json(fan.to_json())
    assert again.rays == fan.rays
    assert again.labels == fan.labels
    assert again.basis_id == fan.basis_id


def test_fan_from_json_with_labels():
    obj = {"rays": [[1, 0], [0, 1], [-1, -1]], "labels": ["u", "v", "w"]}
    fan = fan_from_json(obj)
    assert fan.labels == ("u", "v", "w")
    with pytest.raises(InputError):
        fan_from_json({"rays": [[1, 0], [0, 1]]})
    with pytest.raises(InputError):
        fan_from_json({})


def test_basis_id_differs_between_surfaces():
    ids = {builtin_surface(n).basis_id
           for n in ("p2", "p1xp1", "hirzebruch:1", "hirzebruch:2")}
    assert len(ids) == 4


def test_random_rotations_normalize_to_same_fan():
    rng = random.Random(5)
    base = builtin_surface("hirzebruch:2")
    rays = list(base.rays)
    for _ in range(10):
        k = rng.randrange(4)
        rotated = rays[k:] + rays[:k]
        fan = Fan(rotated)
        assert fan.rays == base.rays
        assert fan.basis_id == base.basis_id
