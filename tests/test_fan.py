import random
from functools import cmp_to_key

import pytest

from toricjac.divisors import (canonical_divisor, divisor_from_labels, genus, h0,
                               intersect, is_ample, is_nef)
from toricjac.errors import InputError
from toricjac.fan import (Fan, _sorted_order, build_hirzebruch, build_p2,
                          builtin_surface, fan_from_json, validate)

from conftest import (DP7_RAYS, moved_fan, random_gl2z, random_smooth_fan,
                      reference_angle_cmp)


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


def test_labels_must_be_variable_names():
    rays = [(1, 0), (0, 1), (-1, -1)]
    for bad in ("a b", "1", "x^2", "x*y", "", "x1\n", "-x"):
        with pytest.raises(InputError, match="not a variable name"):
            Fan(rays, labels=["u", bad, "w"])
    assert Fan(rays, labels=["_", "y_2", "Z9"]).labels == ("_", "y_2", "Z9")


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


def test_ray_order_matches_reference_comparator():
    # parallel and repeated rays included: both sorts are stable on ties
    rng = random.Random(17)
    points = [(x, y) for x in range(-6, 7) for y in range(-6, 7) if (x, y) != (0, 0)]
    for _ in range(100_000):
        rays = rng.sample(points, rng.randint(2, 7))
        rays.append(rng.choice(rays))
        want = sorted(range(len(rays)), key=cmp_to_key(
            lambda i, j: reference_angle_cmp(rays[i], rays[j])))
        assert _sorted_order(rays) == want, rays


def test_invariants_under_gl2z_and_relabelling():
    rng = random.Random(23)
    for _ in range(200):
        fan = random_smooth_fan(rng, rng.randint(0, 4))
        m = random_gl2z(rng, rng.randint(1, 5))
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        other, rename = moved_fan(rng, fan, m)
        # the stored order is the original up to rotation, reversed when det = -1
        order = [rename[lab] for lab in fan.labels][::det]
        k = order.index(other.labels[0])
        assert list(other.labels) == order[k:] + order[:k]
        assert ({rename[lab]: s for lab, s in zip(fan.labels, fan.self_intersections())}
                == dict(zip(other.labels, other.self_intersections())))
        K, K2 = canonical_divisor(fan), canonical_divisor(other)
        assert intersect(fan, K, K) == intersect(other, K2, K2) == 12 - fan.n
        for _ in range(4):
            pair = []
            for _ in range(2):
                coeffs = {lab: rng.randint(-2, 4) for lab in fan.labels}
                pair.append((divisor_from_labels(fan, coeffs), divisor_from_labels(
                    other, {rename[lab]: c for lab, c in coeffs.items()})))
            (D, D2), (E, E2) = pair
            for invariant in (h0, genus, is_ample, is_nef):
                assert invariant(fan, D) == invariant(other, D2), invariant
            assert intersect(fan, D, E) == intersect(other, D2, E2)
