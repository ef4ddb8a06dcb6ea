import itertools
import random
from fractions import Fraction

import pytest
import sympy

from toricjac.errors import InputError
from toricjac.groebner import is_unit_ideal, reduce_poly, s_polynomial, to_int_poly

from test_decide_reference import (ref_groebner_basis, ref_is_unit_ideal,
                                   ref_reduce_poly, ref_s_polynomial, ref_to_int_poly)

X, Y = sympy.symbols("x y")
P = 2**31 - 1


def code(i, j):
    """The groebner module's integer for the monomial x^i y^j."""
    return (i + j) * 2**32 + i


def encoded(terms):
    return {code(i, j): c for (i, j), c in terms.items()}


def decoded(f):
    return {(m % 2**32, m // 2**32 - m % 2**32): c for m, c in f.items()}


def ideal_contains(polys, f):
    """Membership of f in the ideal generated by polys."""
    gb = [to_int_poly(g) for g in ref_groebner_basis(polys)]
    if not gb:
        return not to_int_poly(f)
    return not reduce_poly(to_int_poly(f), gb)


def to_sympy(f):
    return sympy.Add(*[c * X**i * Y**j for (i, j), c in f.items()])


def as_canonical(fs):
    return {tuple(sorted(f.items())) for f in fs}


def test_to_int_poly_normalizes():
    # x^i y^j is stored as (i + j) * 2**32 + i, so integer order is graded
    # lex, x > y
    assert code(0, 2) > code(1, 0) and code(1, 1) > code(0, 2) > code(0, 0)
    f = {(1, 0): Fraction(2, 3), (0, 1): Fraction(-4, 3)}
    assert to_int_poly(f) == encoded({(1, 0): 1, (0, 1): -2})
    # negative leading coefficient is flipped
    assert to_int_poly({(2, 0): -2, (0, 0): 4}) == encoded({(2, 0): 1, (0, 0): -2})
    assert to_int_poly({}) == {}
    assert to_int_poly({(1, 1): Fraction(0)}) == {}
    # mod p: coefficients are residues and the lead is made 1
    assert to_int_poly({(1, 0): 3, (0, 1): 5}, 7) == encoded({(1, 0): 1, (0, 1): 4})
    assert to_int_poly({(1, 0): -7, (0, 0): 9}, 7) == encoded({(0, 0): 1})
    assert to_int_poly({(1, 0): 14}, 7) == {}


def test_to_int_poly_refuses_exponents_the_codes_cannot_hold():
    # an x exponent of 2**32 carries into the degree: x^(2**32) and
    # y^(2**32 + 1) would share one code
    assert code(2**32, 0) == code(0, 2**32 + 1)
    top = 2**32 - 1
    for p in (None, 7):
        assert decoded(to_int_poly({(top, 1): 1, (0, top): 1}, p)) == {(top, 1): 1, (0, top): 1}
        for m in ((top + 1, 0), (0, top + 1)):
            with pytest.raises(InputError, match=r"below 2\*\*32"):
                to_int_poly({m: 1, (0, 0): 1}, p)


def test_reduce_poly_simple():
    x = to_int_poly({(1, 0): 1})
    f = to_int_poly({(2, 0): 1, (0, 0): 1})        # x^2 + 1
    assert reduce_poly(f, [x]) == encoded({(0, 0): 1})
    # scaling the input cannot change the (content-free) normal form
    assert reduce_poly({m: 6 * c for m, c in f.items()}, [x]) == encoded({(0, 0): 1})
    assert reduce_poly({}, [x]) == {}
    # mod 5: x^2 + 3y reduced by the monic x + 2 leaves 3y + 4, made monic
    f = to_int_poly({(2, 0): 1, (0, 1): 3}, 5)
    g = to_int_poly({(1, 0): 1, (0, 0): 2}, 5)
    assert reduce_poly(f, [g], 5) == to_int_poly({(0, 1): 3, (0, 0): 4}, 5)


def test_s_polynomial_of_coprime_leads_vanishes():
    x, y = to_int_poly({(1, 0): 1}), to_int_poly({(0, 1): 1})
    assert s_polynomial(x, y) == {}
    assert s_polynomial(x, y, 3) == {}


def test_groebner_known_example():
    # x^3 - 2xy and x^2 y - 2y^2 + x; reduced basis is x^2, xy, 2y^2 - x
    f1 = {(3, 0): 1, (1, 1): -2}
    f2 = {(2, 1): 1, (0, 2): -2, (1, 0): 1}
    gb = ref_groebner_basis([f1, f2])
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
    # mod p: 3x - 1 is -1 mod 3, and 2x + 2y vanishes mod 2
    three_x_minus_1 = {(1, 0): 3, (0, 0): -1}
    assert is_unit_ideal([three_x_minus_1], 3)
    assert not is_unit_ideal([three_x_minus_1])
    assert not is_unit_ideal([{(1, 0): 2, (0, 1): 2}, x], 2)
    assert is_unit_ideal([x, x_plus_1], 2)


def test_degenerate_generators():
    assert ref_groebner_basis([]) == []
    assert ref_groebner_basis([{}]) == []
    assert ideal_contains([], {})
    assert not ideal_contains([], {(1, 0): 1})


def test_ideal_combinations_reduce_to_zero():
    rng = random.Random(31)
    gens = [{(2, 0): 1, (0, 1): -1},          # x^2 - y
            {(1, 1): 1, (1, 0): 2}]           # xy + 2x
    gb = ref_groebner_basis(gens)
    for _ in range(15):
        f = {}
        for g in gens:
            mono = (rng.randint(0, 2), rng.randint(0, 2))
            c = rng.randint(-3, 3)
            for m, v in g.items():
                mm = (m[0] + mono[0], m[1] + mono[1])
                f[mm] = f.get(mm, 0) + c * v
        f = {m: c for m, c in f.items() if c}
        assert reduce_poly(to_int_poly(f), [to_int_poly(g) for g in gb]) == {}
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
        for p in (2, 3, 5, 2**31 - 1):
            gb = sympy.groebner([to_sympy(g) for g in gens], X, Y,
                                order="grevlex", modulus=p)
            assert is_unit_ideal(gens, p) == (list(gb.exprs) == [sympy.Integer(1)]), p
        done += 1


def lead(f):
    return max(f, key=lambda m: (m[0] + m[1], m[0]))


def test_reduce_poly_reduces_the_lead_only():
    # reduce_poly stops once its lead is divisible by no basis lead; that
    # is enough for membership modulo a Groebner basis, and the remainder
    # stays congruent to a unit multiple of f
    rng = random.Random(17)
    checked = in_ideal = 0
    while checked < 40:
        gens = [random_poly(rng, 3, 4) for _ in range(rng.randint(2, 3))]
        gb = ref_groebner_basis(gens)
        if not gb or lead(gb[0]) == (0, 0):
            continue
        f = random_poly(rng, 4, 6)
        if rng.random() < 0.5:
            f = {}
            for g in gens:
                shift, c = (rng.randint(0, 2), rng.randint(0, 2)), rng.randint(-3, 3)
                for (i, j), v in g.items():
                    m = (i + shift[0], j + shift[1])
                    f[m] = f.get(m, 0) + c * v
            f = {m: c for m, c in f.items() if c}
        if not f:
            continue
        r = decoded(reduce_poly(to_int_poly(f), [to_int_poly(g) for g in gb]))
        normal_form = ref_reduce_poly(ref_to_int_poly(f), gb)
        assert bool(r) == bool(normal_form), (gens, f)
        if r:
            x, y = lead(r)
            assert not any(i <= x and j <= y for i, j in map(lead, gb)), (gens, f)
            # the same normal form as f, so f - u * r lies in the ideal
            assert ref_reduce_poly(r, gb) == normal_form, (gens, f)
        in_ideal += not r
        checked += 1
    assert 0 < in_ideal < checked


def chart_sized_systems(rng):
    """Dense systems of degree 4 to 7 with 3 or 4 generators.

    Half of them have a common zero planted: one over the integers, so
    that it is a zero mod every prime, and one mod a random prime.
    """
    for d, n, q in ((4, 4, None), (5, 4, 0), (6, 3, None),
                    (7, 3, rng.choice((2, 3, 5, 7, P)))):
        polys = [{(i, j): rng.randint(-9, 9) for i in range(d + 1) for j in range(d + 1 - i)}
                 for _ in range(n)]
        if q is not None:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            for g in polys:
                v = sum(c * a**i * b**j for (i, j), c in g.items())
                g[(0, 0)] -= v % q if q else v
        yield [{m: c for m, c in g.items() if c} for g in polys]


def test_chart_sized_systems_match_sympy_and_reference():
    answers = set()
    for polys in chart_sized_systems(random.Random(5)):
        exact = is_unit_ideal(polys)
        assert exact == ref_is_unit_ideal(polys), polys
        answers.add(exact)
        exprs = [to_sympy(g) for g in polys]
        for p in (2, 3, 5, 7, P):
            gb = sympy.groebner(exprs, X, Y, order="grlex", modulus=p)
            mine = is_unit_ideal(polys, p)
            assert mine == (list(gb.exprs) == [sympy.Integer(1)]), (p, polys)
            answers.add((p, mine))
    # unit and non-unit answers occur, exactly and mod every prime
    assert {True, False} <= answers
    assert all((p, b) in answers for p in (2, 3, 5, 7, P) for b in (True, False))


def test_s_polynomial_matches_the_reference():
    # every ordered pair of the chart-sized generators, across systems so
    # that the leads differ in degree as well as in coefficient: over Z the
    # reference's content-free S-polynomial, in coded form; mod p the
    # reference's read mod p and made monic, since s_polynomial leaves its
    # result as it comes there
    polys = [g for system in chart_sized_systems(random.Random(5)) for g in system]
    shifted = scaled = 0
    for f, g in itertools.permutations(polys, 2):
        F, G = ref_to_int_poly(f), ref_to_int_poly(g)
        assert s_polynomial(encoded(F), encoded(G)) == encoded(ref_s_polynomial(F, G)), (f, g)
        shifted += lead(F) != lead(G)
        scaled += F[lead(F)] != G[lead(G)]  # a multiplier other than 1
        for p in (2, 3, 5, 7, P):
            fp, gp = to_int_poly(f, p), to_int_poly(g, p)
            if fp and gp:
                ref = ref_s_polynomial(decoded(fp), decoded(gp))
                assert to_int_poly(decoded(s_polynomial(fp, gp, p)), p) == to_int_poly(ref, p)
    assert shifted > 100 and scaled > 100, (shifted, scaled)
