import random
from fractions import Fraction
from math import ceil, floor
from operator import add

import pytest

from toricjac.cox import monomial_basis
from toricjac.divisors import (PicClass, TorusDivisor, canonical_divisor,
                               divisor_from_labels, genus, h0, intersect,
                               is_ample, is_nef, pic_class, polytope,
                               ray_divisor, representative)
from toricjac.errors import InputError
from toricjac.fan import build_hirzebruch, build_p2, builtin_surface, fan_from_json

from conftest import (DP7_RAYS, cartier_is_ample, euler_characteristic, moved_fan,
                      pointwise_monomial_basis, principal_divisor, random_gl2z,
                      random_smooth_fan, reference_intersect)


def test_hirzebruch_classes():
    for r in range(4):
        fan = build_hirzebruch(r)
        e = {lab: pic_class(fan, divisor_from_labels(fan, {lab: 1}))
             for lab in fan.labels}
        assert e["x1"].vec == (1, 0)
        assert e["x4"].vec == (0, 1)
        assert e["x3"].vec == (1, 0)          # fiber class twice
        assert e["x2"].vec == (-r, 1)         # x2 ~ x4 - r x1
        ab = divisor_from_labels(fan, {"x1": 5, "x2": 3})
        assert pic_class(fan, ab).vec == (5 - 3 * r, 3)


def test_principal_divisors_are_trivial():
    for name in ("p2", "p1xp1", "hirzebruch:2"):
        fan = builtin_surface(name)
        for m in ((1, 0), (0, 1), (3, -2)):
            assert pic_class(fan, principal_divisor(fan, m)).vec == (0,) * (fan.n - 2)


def test_representative_roundtrip():
    rng = random.Random(2)
    for name in ("p2", "hirzebruch:1", "hirzebruch:3"):
        fan = builtin_surface(name)
        size = fan.n - 2
        for _ in range(20):
            vec = tuple(rng.randint(-6, 6) for _ in range(size))
            c = PicClass(vec, fan.basis_id)
            assert pic_class(fan, representative(fan, c)) == c


def test_canonical_class():
    for r in range(4):
        fan = build_hirzebruch(r)
        K = canonical_divisor(fan)
        assert K.coeffs == (-1, -1, -1, -1)
        assert pic_class(fan, K).vec == (r - 2, -2)


def test_intersection_table():
    fan = build_hirzebruch(1)
    D = {lab: divisor_from_labels(fan, {lab: 1}) for lab in fan.labels}
    # adjacency: consecutive rays meet once, opposite rays are disjoint
    assert intersect(fan, D["x3"], D["x2"]) == 1
    assert intersect(fan, D["x2"], D["x1"]) == 1
    assert intersect(fan, D["x1"], D["x3"]) == 0
    assert intersect(fan, D["x2"], D["x4"]) == 0
    # diagonal from the wall relations
    assert [intersect(fan, D[l], D[l]) for l in fan.labels] == [0, -1, 0, 1]


def test_intersection_bilinear_random():
    rng = random.Random(9)
    fan = build_hirzebruch(2)
    for _ in range(15):
        A = TorusDivisor(tuple(rng.randint(-3, 3) for _ in range(4)))
        B = TorusDivisor(tuple(rng.randint(-3, 3) for _ in range(4)))
        C = TorusDivisor(tuple(rng.randint(-3, 3) for _ in range(4)))
        assert intersect(fan, A, B) == intersect(fan, B, A)
        assert intersect(fan, A + B, C) == intersect(fan, A, C) + intersect(fan, B, C)


def test_beta_squared_and_K_squared():
    fan = build_hirzebruch(1)
    beta = divisor_from_labels(fan, {"x1": 5, "x2": 3})
    assert intersect(fan, beta, beta) == 21
    for name in ("p2", "p1xp1", "hirzebruch:1", "hirzebruch:2", "hirzebruch:3"):
        f = builtin_surface(name)
        K = canonical_divisor(f)
        assert intersect(f, K, K) == 12 - f.n


def test_ampleness_grid():
    for r in range(4):
        fan = build_hirzebruch(r)
        for a in range(-2, 9):
            for b in range(-2, 5):
                D = divisor_from_labels(fan, {"x1": a, "x2": b})
                assert is_ample(fan, D) == (a > r * b and b > 0), (r, a, b)


def test_ampleness_examples():
    p2 = build_p2()
    H = ray_divisor(p2, 0)
    assert is_ample(p2, 3 * H) and not is_ample(p2, -1 * H)
    assert not is_ample(p2, 0 * H)
    fan = builtin_surface("p1xp1")
    assert not is_ample(fan, divisor_from_labels(fan, {"x1": 1}))


def test_kleiman_ampleness_equals_cartier_oracle_on_random_fans():
    # 30 random smooth complete fans with up to 8 rays, 100 random divisors each
    ample = 0
    for seed in range(30):
        rng = random.Random(seed)
        fan = random_smooth_fan(rng, rng.randint(0, 4))
        K = canonical_divisor(fan)
        assert intersect(fan, K, K) == 12 - fan.n
        for _ in range(100):
            D = TorusDivisor(tuple(rng.randint(-2, 5) for _ in range(fan.n)))
            assert is_ample(fan, D) == cartier_is_ample(fan, D), (fan, D)
            assert is_nef(fan, D) == cartier_is_ample(fan, D, strict=False), (fan, D)
            if is_ample(fan, D):
                ample += 1
                # an ample divisor has no higher cohomology
                assert h0(fan, D) == euler_characteristic(fan, D)
    assert 100 < ample < 2900


def test_intersections_match_the_reference_formula_on_random_fans():
    # the ray-degree table against the divisor-by-divisor sum, with the
    # adjunction genus and the Kleiman tests read from the same numbers
    for seed in range(30):
        rng = random.Random(seed)
        fan = random_smooth_fan(rng, rng.randint(0, 4))
        K = canonical_divisor(fan)
        for _ in range(50):
            D, E = (TorusDivisor(tuple(rng.randint(-4, 6) for _ in range(fan.n)))
                    for _ in range(2))
            assert intersect(fan, D, E) == reference_intersect(fan, D, E) \
                == reference_intersect(fan, E, D), (fan, D, E)
            degrees = [reference_intersect(fan, D, ray_divisor(fan, i))
                       for i in range(fan.n)]
            assert is_ample(fan, D) == all(d > 0 for d in degrees)
            assert is_nef(fan, D) == all(d >= 0 for d in degrees)
            t = reference_intersect(fan, D, D) + reference_intersect(fan, D, K)
            assert genus(fan, D) == 1 + t // 2


def test_nef_sections_multiply_onto_the_sum():
    # the Minkowski lattice-point property behind the closure proof of the
    # full J0 pieces: for nef T0 and E, S_{T0+E} = S_T0 * S_E
    pairs = not_ample = 0
    for seed in range(30):
        rng = random.Random(seed)
        fan = random_smooth_fan(rng, rng.randint(0, 4))
        nef = [D for D in (TorusDivisor(tuple(rng.randint(-1, 3) for _ in range(fan.n)))
                           for _ in range(40)) if is_nef(fan, D)]
        for T0, E in zip(nef, nef[1:]):
            sums = {tuple(map(add, a, b)) for a in monomial_basis(fan, T0)
                    for b in monomial_basis(fan, E)}
            assert sums == set(monomial_basis(fan, T0 + E)), (fan, T0, E)
            pairs += 1
            not_ample += not (is_ample(fan, T0) and is_ample(fan, E))
    assert pairs >= 100 and not_ample >= 50, (pairs, not_ample)


def test_polytope_and_h0_basics():
    fan = build_hirzebruch(1)
    beta = divisor_from_labels(fan, {"x1": 5, "x2": 3})
    points = polytope(fan, beta)
    assert len(points) == 18 and points == tuple(sorted(points))
    assert h0(fan, beta) == 18
    assert h0(fan, TorusDivisor((0, 0, 0, 0))) == 1
    assert h0(fan, canonical_divisor(fan)) == 0
    assert h0(fan, divisor_from_labels(fan, {"x1": -1})) == 0


def bounding_box_polytope(fan, D):
    """Reference: test every lattice point of the vertices' bounding box."""
    ineqs = [(u, a) for u, a in zip(fan.rays, D.coeffs)]

    def feasible(mx, my):
        return all(u[0] * mx + u[1] * my + a >= 0 for u, a in ineqs)

    verts = []
    for i, (ui, ai) in enumerate(ineqs):
        for uj, aj in ineqs[i + 1:]:
            d = ui[0] * uj[1] - ui[1] * uj[0]
            if d:
                v = (Fraction(aj * ui[1] - ai * uj[1], d),
                     Fraction(ai * uj[0] - aj * ui[0], d))
                if feasible(*v):
                    verts.append(v)
    if not verts:
        return ()
    xs, ys = [v[0] for v in verts], [v[1] for v in verts]
    return tuple((x, y) for x in range(ceil(min(xs)), floor(max(xs)) + 1)
                 for y in range(ceil(min(ys)), floor(max(ys)) + 1) if feasible(x, y))


def test_polytope_matches_bounding_box_oracle():
    names = ("p2", "p1xp1", "hirzebruch:1", "hirzebruch:2", "hirzebruch:3", "hirzebruch:5")
    fans = [builtin_surface(name) for name in names]
    for rays in (DP7_RAYS,
                 [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]],
                 [[1, 0], [2, 1], [1, 1], [0, 1], [-1, -3], [0, -1]]):
        fans.append(fan_from_json({"rays": rays}))
    rng = random.Random(5)
    sizes = set()
    for fan in fans:
        divisors = [TorusDivisor((0,) * fan.n), canonical_divisor(fan)]
        divisors += [TorusDivisor(tuple(rng.randint(-3, 6) for _ in range(fan.n)))
                     for _ in range(60)]
        for D in divisors:
            want = bounding_box_polytope(fan, D)
            assert polytope(fan, D) == want, (fan.rays, D)
            assert h0(fan, D) == len(want)
            sizes.add(min(len(want), 2))
    assert sizes == {0, 1, 2}  # empty, one-point and larger polytopes all occur


def test_bases_come_out_sorted_on_random_fans():
    # bases are listed in the coordinates of the first cone, sorted with no
    # sort: on 200 random smooth fans, moved by a random unimodular map so
    # that the first ray is not always (1, 0), monomial_basis equals the
    # sorted pointwise listing and polytope the bounding-box reference,
    # over empty, non-nef, nef and ample classes
    kinds = set()
    moved = 0
    for seed in range(200):
        rng = random.Random(seed)
        fan = random_smooth_fan(rng, rng.randint(0, 4))
        fan, _ = moved_fan(rng, fan, random_gl2z(rng, rng.randint(1, 6)))
        moved += fan.rays[0] != (1, 0)
        for _ in range(8):
            D = TorusDivisor(tuple(rng.randint(-3, 6) for _ in range(fan.n)))
            assert polytope(fan, D) == bounding_box_polytope(fan, D), (fan, D)
            want = pointwise_monomial_basis(fan, D)
            assert monomial_basis(fan, D) == want, (fan, D)
            kinds.add("empty" if not want else "ample" if is_ample(fan, D)
                      else "nef" if is_nef(fan, D) else "not nef")
    assert kinds == {"empty", "not nef", "nef", "ample"}
    assert moved >= 100, moved


def test_h0_closed_form_small_grid():
    for r in range(4):
        fan = build_hirzebruch(r)
        for b in range(1, 5):
            for a in range(r * b + 1, 11):
                D = divisor_from_labels(fan, {"x1": a, "x2": b})
                expect = (a + 1) * (b + 1) - r * b * (b + 1) // 2
                assert h0(fan, D) == expect == euler_characteristic(fan, D)


def test_euler_characteristic_structure_sheaf():
    for name in ("p2", "p1xp1", "hirzebruch:3"):
        fan = builtin_surface(name)
        assert euler_characteristic(fan, TorusDivisor((0,) * fan.n)) == 1
        assert euler_characteristic(fan, canonical_divisor(fan)) == 1


def test_riemann_roch_and_adjunction_on_random_fans():
    # Demazure vanishing: a nef D has no higher cohomology, so h0 is the
    # Riemann-Roch number; for ample D adjunction counts the interior
    # points of its polygon, which are the sections of D + K
    nef = ample = 0
    for seed in range(40):
        rng = random.Random(seed)
        fan = random_smooth_fan(rng, rng.randint(0, 4))
        K = canonical_divisor(fan)
        for _ in range(60):
            D = TorusDivisor(tuple(rng.randint(-1, 4) for _ in range(fan.n)))
            if is_nef(fan, D):
                nef += 1
                assert h0(fan, D) == euler_characteristic(fan, D) \
                    == len(monomial_basis(fan, D)), (fan, D)
            if is_ample(fan, D):
                ample += 1
                assert genus(fan, D) == h0(fan, D + K), (fan, D)
    assert nef > 400 and ample > 250, (nef, ample)


def test_genus_values():
    fan = build_hirzebruch(1)
    beta = divisor_from_labels(fan, {"x1": 5, "x2": 3})
    assert genus(fan, beta) == 5
    for r in range(4):
        f = build_hirzebruch(r)
        for b in range(1, 5):
            for a in range(r * b + 1, 11):
                D = divisor_from_labels(f, {"x1": a, "x2": b})
                expect = Fraction(b - 1) * (Fraction(a - 1) - Fraction(r * b, 2))
                assert expect.denominator == 1
                assert genus(f, D) == expect


def test_genus_anticanonical_dp7(dp7_fan):
    K = canonical_divisor(dp7_fan)
    assert genus(dp7_fan, -2 * K) == 8
    assert intersect(dp7_fan, K, K) == 7
    assert is_ample(dp7_fan, -1 * K)
    assert not is_ample(dp7_fan, ray_divisor(dp7_fan, 1))


def test_input_validation():
    fan = build_hirzebruch(1)
    with pytest.raises(InputError):
        divisor_from_labels(fan, {"y9": 1})
    with pytest.raises(InputError):
        intersect(fan, TorusDivisor((1, 2, 3)), canonical_divisor(fan))
    with pytest.raises(InputError):
        intersect(fan, canonical_divisor(fan), TorusDivisor((1, 2, 3)))
    a, b = TorusDivisor((1, 2, 3, 4)), TorusDivisor((0, 0, 0, 0, 7))
    for combine in (a.__add__, a.__sub__):
        with pytest.raises(InputError, match="of 4 and 5 coefficients"):
            combine(b)
    other = build_p2()
    with pytest.raises(InputError):
        representative(fan, pic_class(other, canonical_divisor(other)))
