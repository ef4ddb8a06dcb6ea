import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from toricjac.cox import (CoxPolynomial, monomial_basis, multidegree,
                          poly_from_json, poly_from_text)
from toricjac.divisors import (PicClass, TorusDivisor, divisor_from_labels, h0,
                               is_ample, is_nef, pic_class, polytope)
from toricjac.errors import InputError, InternalError
from toricjac.fan import Fan, build_hirzebruch, builtin_surface
from toricjac.jacobian import JacobianSystem
from toricjac import cox

from conftest import (TRIGONAL_D5, euler_term, euler_terms, partial,
                      pointwise_monomial_basis, random_smooth_fan)


def must_not_run(*args):
    raise AssertionError("the piece must be refused before it is listed")


def test_monomial_basis_matches_h0():
    fan = build_hirzebruch(1)
    for a, b in ((5, 3), (2, 1), (1, 1), (0, 0), (7, 2)):
        D = divisor_from_labels(fan, {"x1": a, "x2": b})
        basis = monomial_basis(fan, D)
        assert len(basis) == h0(fan, D)
        cls = pic_class(fan, D)
        for e in basis:
            assert all(x >= 0 for x in e)
            assert multidegree(fan, e) == cls
        assert list(basis) == sorted(basis)


def test_monomial_basis_small_case():
    fan = build_hirzebruch(1)
    D = divisor_from_labels(fan, {"x1": 2, "x2": 1})
    names = [fan.monomial_label(e) for e in monomial_basis(fan, D)]
    assert names == ["x1*x4", "x1^2*x2", "x3*x4", "x1*x2*x3", "x2*x3^2"]


def test_parse_trigonal_section():
    fan = build_hirzebruch(1)
    f = poly_from_text(fan, TRIGONAL_D5)
    assert len(f.terms) == 4
    assert f.homogeneous_class().vec == (2, 3)
    assert f.to_text() == "x2^3*x3^5 + x3^2*x4^3 + x1^5*x2^3 + x1^2*x4^3"


def test_parse_coefficients_and_signs():
    fan = build_hirzebruch(1)
    f = poly_from_text(fan, "-x1 + 3*x1 - 1/2*x1")
    ((e, c),) = f.terms.items()
    assert c == Fraction(3, 2)
    assert multidegree(fan, e).vec == (1, 0)
    g = poly_from_text(fan, "2*3*x2 - x2^2*x1^0")   # x1^0 is allowed and empty
    assert g.terms[tuple_for(fan, {"x2": 1})] == 6
    assert g.terms[tuple_for(fan, {"x2": 2})] == -1
    assert poly_from_text(fan, "x1 - x1").is_zero()


def tuple_for(fan, powers):
    e = [0] * fan.n
    for lab, k in powers.items():
        e[fan.position(lab)] = k
    return tuple(e)


def test_parse_errors():
    fan = build_hirzebruch(1)
    for bad in ("", "x9", "x1 +", "x1^", "1/0", "x1 x2", "(x1)",
                "x1*", "x1^2 + 1/2*", "0*", "1/"):
        with pytest.raises(InputError):
            poly_from_text(fan, bad)


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(st.text(alphabet="xy0123456789+-*/^() \t", max_size=24))
@example("x1*")
@example("x1^2 + 1/2*")
def test_malformed_text_is_refused_never_crashes(text):
    try:
        poly_from_text(build_hirzebruch(1), text)
    except InputError:
        pass


SPACES = ("", " ", "  ", "\t", "\n")


@st.composite
def term_structures(draw):
    """Terms as (signs, factors), factors being ('int', n), ('frac', p, q) or
    ('var', label, exponent or None), plus some terms again with the opposite sign."""
    factor = st.one_of(
        st.tuples(st.just("int"), st.integers(0, 30)),
        st.tuples(st.just("frac"), st.integers(0, 30), st.integers(1, 12)),
        st.tuples(st.just("var"), st.sampled_from(["x1", "x2", "x3", "x4"]),
                  st.none() | st.integers(0, 5)))
    terms = []
    for k in range(draw(st.integers(1, 5))):
        signs = draw(st.text(alphabet="+-", min_size=1 if k else 0, max_size=3))
        terms.append((signs, draw(st.lists(factor, min_size=1, max_size=4))))
    for signs, factors in draw(st.lists(st.sampled_from(terms), max_size=2)):
        terms.append(("-" + signs, draw(st.permutations(factors))))
    return terms


def render(rng, terms):
    """The terms as text, with random whitespace between any two tokens."""
    def ws():
        return rng.choice(SPACES)

    out = ws()
    for signs, factors in terms:
        out += "".join(c + ws() for c in signs)
        texts = []
        for kind, a, *b in factors:
            if kind == "int":
                texts.append(str(a))
            elif kind == "frac":
                texts.append(f"{a}{ws()}/{ws()}{b[0]}")
            else:
                texts.append(a if b[0] is None else f"{a}{ws()}^{ws()}{b[0]}")
        out += f"{ws()}*{ws()}".join(texts) + ws()
    return out


@PROPERTY
@given(term_structures(), st.randoms(use_true_random=False))
def test_parsed_values_match_the_term_structure(terms, rng):
    fan = build_hirzebruch(1)
    expected = {}
    for signs, factors in terms:
        coeff = Fraction((-1) ** signs.count("-"))
        powers = dict.fromkeys(fan.labels, 0)
        for kind, a, *b in factors:
            if kind == "int":
                coeff *= a
            elif kind == "frac":
                coeff *= Fraction(a, b[0])
            else:
                powers[a] += 1 if b[0] is None else b[0]
        e = tuple_for(fan, powers)
        expected[e] = expected.get(e, 0) + coeff
    assert poly_from_text(fan, render(rng, terms)).terms == {e: c for e, c in expected.items() if c}


def test_long_malformed_input_is_refused_in_linear_time():
    fan = build_hirzebruch(1)
    for bad in ("+-" * 50_000, "+ " * 50_000, "x1" + " * x2" * 20_000 + " *",
                "x1 " * 30_000, "1" + " " * 100_000 + "x"):
        start = time.perf_counter()
        with pytest.raises(InputError):
            poly_from_text(fan, bad)
        assert time.perf_counter() - start < 2


def test_text_roundtrip_random():
    rng = random.Random(17)
    fan = build_hirzebruch(1)
    D = divisor_from_labels(fan, {"x1": 4, "x2": 2})
    basis = monomial_basis(fan, D)
    for _ in range(20):
        terms = {}
        for e in rng.sample(basis, rng.randint(1, 6)):
            terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        p = CoxPolynomial(fan, {e: c for e, c in terms.items() if c})
        assert poly_from_text(fan, p.to_text()).terms == p.terms


def test_monomial_basis_refuses_an_oversized_piece(monkeypatch):
    # h0 counts without listing; the listing is refused above the budget,
    # with polytope's message, before any column is listed
    fan = builtin_surface("p1xp1")
    D = divisor_from_labels(fan, {"x1": 2000, "x2": 2000})
    assert h0(fan, D) == 4_004_001
    with pytest.raises(InputError) as refused:
        polytope(fan, D)
    monkeypatch.setattr(cox, "repeat", must_not_run)  # p1xp1 has rays with u_y = 0
    with pytest.raises(InputError, match="has 4004001 monomials, above 100000") as error:
        monomial_basis(fan, D)
    assert str(error.value) == str(refused.value)


def test_monomial_basis_equals_the_pointwise_listing():
    # the column-wise listing against one tuple per polytope point, over
    # empty, non-nef, nef and ample classes on random smooth fans
    kinds = set()
    for seed in range(30):
        rng = random.Random(seed)
        fan = random_smooth_fan(rng, rng.randint(0, 4))
        for _ in range(40):
            D = TorusDivisor(tuple(rng.randint(-3, 6) for _ in range(fan.n)))
            want = pointwise_monomial_basis(fan, D)
            assert monomial_basis(fan, D) == want, (fan, D)
            kinds.add("empty" if not want else "ample" if is_ample(fan, D)
                      else "nef" if is_nef(fan, D) else "not nef")
    assert kinds == {"empty", "not nef", "nef", "ample"}


def test_json_roundtrip():
    fan = build_hirzebruch(1)
    p = poly_from_text(fan, "x1^5*x2^3 - 7/3*x3^2*x4^3")
    assert poly_from_json(fan, p.to_json()).terms == p.terms
    with pytest.raises(InputError):
        poly_from_json(fan, {"terms": [{"exps": [1, 2], "coeff": "x"}]})
    for bad in ({"nope": []}, {"terms": 5}, {"terms": None}, {"terms": "x1"},
                {"terms": {}}, [{"terms": []}]):
        with pytest.raises(InputError, match="an object with a 'terms' list"):
            poly_from_json(fan, bad)


def test_homogeneous_class():
    fan = build_hirzebruch(1)
    x1, x2, x3 = (tuple_for(fan, {lab: 1}) for lab in ("x1", "x2", "x3"))
    both = CoxPolynomial(fan, {x1: 1, x3: 1})
    assert both.homogeneous_class().vec == (1, 0)   # x1 and x3 share a class
    assert CoxPolynomial(fan, {x1: 0}).is_zero()
    assert CoxPolynomial(fan, {}).homogeneous_class() is None
    square = CoxPolynomial(fan, {tuple_for(fan, {"x1": 2}): 1,
                                 tuple_for(fan, {"x1": 1, "x3": 1}): 2,
                                 tuple_for(fan, {"x3": 2}): 1})
    assert square.homogeneous_class().vec == (2, 0)
    mixed = CoxPolynomial(fan, {x1: 1, x2: 1})
    with pytest.raises(InputError):
        mixed.homogeneous_class()


def test_constructors_refuse_inexact_and_boolean_inputs():
    p2 = builtin_surface("p2")
    for terms in ({(1.7, 0, 2): 1}, {(1, 0, 2): 0.1}, {(True, 0, 2): 1},
                  {(1, 0, 2): True}, {(1, 0, 2): "1"}, {("1", 0, 2): 1},
                  {5: 1}, 7, [((1, 0, 2), 1)]):
        with pytest.raises(InputError):
            CoxPolynomial(p2, terms)
    for rays in ([(True, 0), (0, 1), (-1, -1)], [(1.0, 0), (0, 1), (-1, -1)],
                 [("1", 0), (0, 1), (-1, -1)], [1, (0, 1), (-1, -1)], 5):
        with pytest.raises(InputError):
            Fan(rays)
    for coeffs in ((1.9, 0, 0), (True, 0, 0), ("1", 0, 0), (Fraction(1), 0, 0), 5):
        with pytest.raises(InputError):
            TorusDivisor(coeffs)
    for vec in ((1.5,), 5):
        with pytest.raises(InputError):
            PicClass(vec, p2.basis_id)
    f = CoxPolynomial(p2, {(1, 0, 2): 1, (0, 3, 0): Fraction(-1, 3)})
    assert all(type(c) is Fraction for c in f.terms.values())


def test_partial_and_euler_term():
    fan = build_hirzebruch(1)
    f = poly_from_text(fan, TRIGONAL_D5)
    i1 = fan.position("x1")
    d1 = partial(f, i1)
    expect = poly_from_text(fan, "5*x1^4*x2^3 + 2*x1*x4^3")
    assert d1.terms == expect.terms
    assert euler_term(f, i1).terms == poly_from_text(fan, "5*x1^5*x2^3 + 2*x1^2*x4^3").terms
    const = CoxPolynomial(fan, {(0, 0, 0, 0): 1})
    assert partial(const, 0).is_zero()


def test_euler_identity_on_sections():
    # JacobianSystem checks phi(beta) f = sum phi_rho x_rho df/dx_rho on a
    # basis of the weights with sum phi_rho u_rho = 0; the identity is
    # linear in phi, so the basis covers every weight.
    fan = build_hirzebruch(1)
    f = poly_from_text(fan, TRIGONAL_D5)
    sys_ = JacobianSystem(fan, f)
    # kernel of the ray matrix: phi_x1 = phi_x3 = s, phi_x4 = s + phi_x2
    for s, t in ((1, 0), (0, 1), (Fraction(-3, 2), Fraction(5, 3))):
        phi = [0] * fan.n
        for lab, w in (("x1", s), ("x3", s), ("x2", t), ("x4", s + t)):
            phi[fan.position(lab)] = w
        const = sum(p * a for p, a in zip(phi, sys_.beta_divisor.coeffs))
        lhs = {}
        for term, p in zip(euler_terms(sys_), phi):
            for e, c in term.terms.items():
                lhs[e] = lhs.get(e, 0) + p * c
        want = {e: const * c for e, c in f.terms.items()}
        assert {e: c for e, c in lhs.items() if c} == want
    # the check reads the integer Euler terms the engines use: a rescaled
    # one, and one with a monomial of class beta that f lacks, which only a
    # comparison of both dicts in full catches
    g0 = sys_._integral_terms[0]
    assert g0
    extra = next(e for e in monomial_basis(fan, sys_.beta_divisor) if e not in f.terms)
    for bad in (tuple((e, 2 * c) for e, c in g0), g0 + ((extra, 1),)):
        broken = JacobianSystem(fan, f)
        broken._integral_terms = (bad,) + broken._integral_terms[1:]
        with pytest.raises(InternalError):
            broken._check_euler_identities()
