import random
from fractions import Fraction

import sympy

from toricjac.groebner import (groebner_basis, ideal_contains, is_unit_ideal,
                               reduce_poly, s_polynomial, to_int_poly)

X, Y = sympy.symbols("x y")


def to_sympy(f):
    return sympy.Add(*[c * X**i * Y**j for (i, j), c in f.items()])


def as_canonical(fs):
    return {tuple(sorted(f.items())) for f in fs}


def test_to_int_poly_normalizes():
    f = {(1, 0): Fraction(2, 3), (0, 1): Fraction(-4, 3)}
    assert to_int_poly(f) == {(1, 0): 1, (0, 1): -2}
    # negative leading coefficient is flipped
    assert to_int_poly({(2, 0): -2, (0, 0): 4}) == {(2, 0): 1, (0, 0): -2}
    assert to_int_poly({}) == {}
    assert to_int_poly({(1, 1): Fraction(0)}) == {}


def test_reduce_poly_simple():
    x = {(1, 0): 1}
    f = {(2, 0): 1, (0, 0): 1}        # x^2 + 1
    assert reduce_poly(f, [x]) == {(0, 0): 1}
    # scaling the input cannot change the (content-free) normal form
    assert reduce_poly({m: 6 * c for m, c in f.items()}, [x]) == {(0, 0): 1}
    assert reduce_poly({}, [x]) == {}


def test_s_polynomial_of_coprime_leads_vanishes():
    assert s_polynomial({(1, 0): 1}, {(0, 1): 1}) == {}


def test_groebner_known_example():
    # x^3 - 2xy and x^2 y - 2y^2 + x; reduced basis is x^2, xy, 2y^2 - x
    f1 = {(3, 0): 1, (1, 1): -2}
    f2 = {(2, 1): 1, (0, 2): -2, (1, 0): 1}
    gb = groebner_basis([f1, f2])
    assert as_canonical(gb) == as_canonical([
        {(2, 0): 1}, {(1, 1): 1}, {(0, 2): 2, (1, 0): -1}])
    assert not is_unit_ideal([f1, f2])
    assert ideal_contains([f1, f2], {(2, 0): 1})
    assert not ideal_contains([f1, f2], {(1, 0): 1})


def test_unit_ideal_cases():
    x = {(1, 0): 1}
    x_plus_1 = {(1, 0): 1, (0, 0): 1}
    assert is_unit_ideal([x, x_plus_1])
    assert is_unit_ideal([{(0, 0): 7}])
    assert not is_unit_ideal([x, {(0, 1): 3}])
    assert not is_unit_ideal([])
    assert not is_unit_ideal([{}])


def test_degenerate_generators():
    assert groebner_basis([]) == []
    assert groebner_basis([{}]) == []
    assert ideal_contains([], {})
    assert not ideal_contains([], {(1, 0): 1})


def test_ideal_combinations_reduce_to_zero():
    rng = random.Random(31)
    gens = [{(2, 0): 1, (0, 1): -1},          # x^2 - y
            {(1, 1): 1, (1, 0): 2}]           # xy + 2x
    gb = groebner_basis(gens)
    for _ in range(15):
        f = {}
        for g in gens:
            mono = (rng.randint(0, 2), rng.randint(0, 2))
            c = rng.randint(-3, 3)
            for m, v in g.items():
                mm = (m[0] + mono[0], m[1] + mono[1])
                f[mm] = f.get(mm, 0) + c * v
        f = {m: c for m, c in f.items() if c}
        assert reduce_poly(f, gb) == {}
        assert ideal_contains(gens, f)


def random_poly(rng, max_deg=2, nterms=3):
    f = {}
    for _ in range(nterms):
        m = (rng.randint(0, max_deg), rng.randint(0, max_deg))
        f[m] = f.get(m, 0) + rng.randint(-3, 3)
    return {m: c for m, c in f.items() if c}


def test_membership_against_sympy():
    rng = random.Random(41)
    done = 0
    while done < 10:
        gens = [random_poly(rng) for _ in range(rng.randint(2, 3))]
        gens = [g for g in gens if g]
        if not gens:
            continue
        probe = random_poly(rng)
        mine = ideal_contains(gens, probe)
        gb = sympy.groebner([to_sympy(g) for g in gens], X, Y,
                            order="grevlex")
        theirs = bool(gb.contains(to_sympy(probe)))
        assert mine == theirs, (gens, probe)
        assert is_unit_ideal(gens) == (list(gb.exprs) == [sympy.Integer(1)])
        done += 1
