import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, islice
from math import lcm

import pytest

from toricjac.cox import CoxPolynomial, monomial_basis, poly_from_text
from toricjac.divisors import (TorusDivisor, canonical_divisor, divisor_from_labels,
                               genus, h0, is_ample, is_nef, pic_class)
from toricjac.errors import InputError
from toricjac.fan import Fan, builtin_surface
from toricjac.jacobian import JacobianSystem
from toricjac import jacobian, linalg

from conftest import (H2_TRIGONAL, TRIGONAL_D5, dense_reduce, dense_section,
                      euler_terms, j1_by_slicing, j1_dim_brute, j_piece,
                      lambda_section, multiplication_rank, pairing_matrix,
                      principal_divisor, r1_dim, random_smooth_fan, row_terms)
import conftest
from test_decide_reference import (DENSE, boundary_systems, lambda_systems,
                                   nodal_systems, sparse_systems)


def subspace_leq(small, big):
    assert small.ambient == big.ambient
    return not any(big.residual(row_terms(small.ambient, row)) for row in small.rows)


def test_constructor_validation(h1):
    with pytest.raises(InputError):
        JacobianSystem(h1, CoxPolynomial(h1, {}))
    with pytest.raises(InputError):
        JacobianSystem(h1, poly_from_text(h1, "x1 + x2"))
    with pytest.raises(InputError):
        JacobianSystem(h1, "x1")
    # a section of another surface is bad input, not a failed invariant
    with pytest.raises(InputError, match="different fan"):
        JacobianSystem(builtin_surface("p2"), poly_from_text(h1, TRIGONAL_D5))
    with pytest.raises(InputError, match="different fan"):
        JacobianSystem(builtin_surface("p1xp1"), poly_from_text(h1, TRIGONAL_D5))


def test_trigonal_d5_dimensions(s5, h1):
    beta = s5.beta_divisor
    K = canonical_divisor(h1)
    assert s5.section_dim(beta) == 18
    assert s5.j0_piece(beta).dim == 3
    assert j_piece(s5, beta).dim == 7
    assert s5.j1_piece(beta).dim == 7
    assert r1_dim(s5, beta) == 11
    assert s5.j1_piece(beta + K).dim == 0
    assert r1_dim(s5, beta + K) == 5
    assert r1_dim(s5, 2 * beta + K) == 5
    assert s5.section_dim(2 * beta + 2 * K) == 12
    assert s5.j1_piece(2 * beta + 2 * K).dim == 1
    assert r1_dim(s5, 2 * beta + 2 * K) == 11
    assert r1_dim(s5, 3 * beta + 2 * K) == 1


def test_beta_divisor_inferred_from_first_monomial(s5, h1):
    assert s5.beta_divisor.coeffs == tuple(sorted(s5.f.terms)[0])
    assert s5.beta_class.vec == (2, 3)


def test_j0_contains_euler_terms(s5):
    piece = s5.j0_piece(s5.beta_divisor)
    for term in euler_terms(s5):
        assert not piece.residual(term.terms)
    assert len(piece.ambient) == 18
    assert len(piece.coset_monomials()) == 15


def test_dense_random_sections_on_random_fans():
    # the constructor's Euler check passes, and the integer Euler terms are
    # the rational ones times the common denominator of f
    built = 0
    for seed in range(30):
        rng = random.Random(seed)
        fan = random_smooth_fan(rng, rng.randint(0, 4))
        K = canonical_divisor(fan)
        D = -1 * K + TorusDivisor(tuple(rng.randint(0, 2) for _ in range(fan.n)))
        f = CoxPolynomial(fan, {e: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                for e in monomial_basis(fan, D)})
        if f.is_zero():
            continue
        sys_ = JacobianSystem(fan, f)
        den = lcm(*(c.denominator for c in f.terms.values()))
        for term, ref in zip(sys_._integral_terms, euler_terms(sys_), strict=True):
            assert dict(term) == {e: den * c for e, c in ref.terms.items()}
        built += 1
    assert built >= 25


def kernel_pivot_terms(sys_):
    """Indices of the spanning Euler terms by the rational rule: the nonzero
    terms off the pivots of the RREF of the kernel of the rays over beta,
    which gives each term at a pivot as a combination of the others."""
    fan = sys_.fan
    rays_and_beta = [[u[0] for u in fan.rays], [u[1] for u in fan.rays],
                     list(sys_.beta_divisor.coeffs)]
    _, pivots = linalg.kernel(rays_and_beta, fan.n)
    return {i for i, g in enumerate(sys_._integral_terms) if g and i not in pivots}


def test_spanning_terms_match_the_kernel_pivot_rule():
    # random sections on random fans: rational or integer coefficients,
    # dense or sparse (some Euler terms zero), and constant ones, where no
    # c_k is nonzero; the relations off the last cone span the rational
    # kernel of the ray matrix and give c_k = phi(beta)
    kinds = Counter()
    for seed in range(330):
        rng = random.Random(seed)
        fan = random_smooth_fan(rng, rng.randint(0, 4))
        if seed % 11 == 0:
            kinds["constant"] += 1
            f = CoxPolynomial(fan, {(0,) * fan.n: Fraction(rng.randint(1, 9), rng.randint(1, 4))})
        else:
            D = TorusDivisor(tuple(rng.randint(0, 3) for _ in range(fan.n)))
            keep = rng.choice((1.0, 0.5, 0.2))
            basis = monomial_basis(fan, D)
            chosen = [e for e in basis if rng.random() < keep] or [rng.choice(basis)]
            rational = rng.random() < 0.5
            f = CoxPolynomial(fan, {e: Fraction(rng.randint(1, 9),
                                                rng.randint(1, 4) if rational else 1)
                                    for e in chosen})
            kinds["rational"] += rational
        sys_ = JacobianSystem(fan, f)
        kinds["sparse"] += not all(sys_._integral_terms)
        spanning = {i for i, g in enumerate(sys_._integral_terms)
                    if any(g is h for h in sys_._spanning_terms)}
        assert len(spanning) == len(sys_._spanning_terms), seed
        assert spanning == kernel_pivot_terms(sys_), seed
        phis = []
        for k, (a, b, c) in enumerate(sys_._relations):
            phi = [0] * fan.n
            phi[k], phi[-2], phi[-1] = 1, -a, -b
            assert [sum(p * u[x] for p, u in zip(phi, fan.rays)) for x in (0, 1)] == [0, 0]
            assert c == sum(p * x for p, x in zip(phi, sys_.beta_divisor.coeffs))
            phis.append([Fraction(p) for p in phi])
        ker, _ = linalg.kernel([[u[0] for u in fan.rays], [u[1] for u in fan.rays]], fan.n)
        assert linalg.rank(phis + ker, fan.n) == linalg.rank(phis, fan.n) == len(ker) == fan.n - 2
    assert kinds["constant"] >= 25 and kinds["rational"] >= 100 and kinds["sparse"] >= 50, kinds


def test_residual_of_monomial_matches_dense_reduction(s5, h1):
    beta = s5.beta_divisor
    K = canonical_divisor(h1)
    rational = JacobianSystem(h1, poly_from_text(
        h1, "1/2*x1^5*x2^3 + 3/7*x3^2*x4^3 - 5/3*x3^5*x2^3 + x1^2*x4^3"
            " + 2/5*x1^3*x2^2*x3*x4"))
    pieces = [s5.j0_piece(beta), s5.j1_piece(beta), j_piece(s5, 2 * beta + K),
              s5.j1_piece(2 * beta + 2 * K), rational.j1_piece(beta),
              rational.j0_piece(2 * beta + K)]
    for piece in pieces:
        for k, e in enumerate(piece.ambient):
            unit = [0] * len(piece.ambient)
            unit[k] = 1
            red = piece.residual({e: 1})
            assert all(isinstance(x, Fraction) and x for x in red.values())
            dense = [red.get(c, Fraction(0)) for c in range(len(piece.ambient))]
            assert dense == dense_reduce(piece.rows, piece.pivots, unit)


def test_residual_rejects_monomial_outside_the_piece(s5):
    piece = s5.j1_piece(s5.beta_divisor)
    outside = tuple(a + 1 for a in piece.ambient[0])
    with pytest.raises(InputError, match="is not in this graded piece"):
        piece.residual({outside: 1})


def test_containments_j0_j_j1(s5, h1):
    beta = s5.beta_divisor
    K = canonical_divisor(h1)
    for D in (beta, 2 * beta + K, 2 * beta + 2 * K):
        j0 = s5.j0_piece(D)
        j = j_piece(s5, D)
        j1 = s5.j1_piece(D)
        assert subspace_leq(j0, j1)
        assert subspace_leq(j, j1)
        assert subspace_leq(j0, j)
        assert j0.dim <= j.dim <= j1.dim


def test_random_fans_j_in_j1_and_duality_at_beta_plus_k():
    # Dense and sparse sections at small ample classes on random smooth
    # fans.  J lies in J1 for any section, since x * df/dx_rho is a
    # multiple of the Euler term of rho.  For a nondegenerate one, J1 is 0
    # at beta+K, so r1(beta+K) = h0(beta+K) = g, and duality gives r1 at
    # 2beta+K the same.  Where beta+K is also nef, the top piece R1 at
    # 3beta+2K is a line and the pairing of beta+K with 2beta+K is perfect
    # (with beta+K not nef the top piece was 0 on every draw).  Where
    # J1_{2beta+2K} != 0 as well, r1(beta) = r1(2beta+2K) and that pairing
    # is perfect too; with J1_{2beta+2K} = 0, which the criterion refuses
    # as a precondition, r1(beta) > r1(2beta+2K) on three of seven draws.
    # Duality at other classes is not asserted: r1(beta-K) != r1(2beta+3K)
    # on two of these draws.
    rng = random.Random(7)
    sizes, nondegenerate, paired = Counter(), 0, 0
    while sum(sizes.values()) < 40:
        fan = random_smooth_fan(rng, rng.randint(0, 3))
        beta = TorusDivisor(tuple(rng.randint(0, 3) for _ in range(fan.n)))
        if not is_ample(fan, beta) or not 3 <= h0(fan, beta) <= 30:
            continue
        basis = monomial_basis(fan, beta)
        if sum(sizes.values()) % 2:
            basis = rng.sample(basis, rng.randint(2, min(6, len(basis))))
        sys_ = JacobianSystem(fan, CoxPolynomial(
            fan, {e: rng.choice((-3, -2, -1, 1, 2, 3)) for e in basis}))
        sizes[fan.n] += 1
        K = canonical_divisor(fan)
        for D in (beta, 2 * beta + K):
            assert subspace_leq(j_piece(sys_, D), sys_.j1_piece(D)), fan.rays
        if sys_.nondegenerate_decide().status == "nondegenerate":
            nondegenerate += 1
            ra = r1_dim(sys_, beta + K)
            assert ra == r1_dim(sys_, 2 * beta + K) == genus(fan, beta), (
                fan.rays, sys_.f.to_text())
            if not is_nef(fan, beta + K):
                continue
            paired += 1
            assert r1_dim(sys_, 3 * beta + 2 * K) == 1, fan.rays
            m = pairing_matrix(sys_, beta + K, 2 * beta + K)
            assert not ra or linalg.rank(m, len(m[0])) == ra, fan.rays
            if sys_.j1_piece(2 * beta + 2 * K).dim:
                rb = r1_dim(sys_, beta)
                assert rb == r1_dim(sys_, 2 * beta + 2 * K), fan.rays
                m = pairing_matrix(sys_, beta, 2 * beta + 2 * K)
                assert linalg.rank(m, len(m[0])) == rb, fan.rays
    assert nondegenerate >= 15 and paired >= 10 and set(sizes) >= {3, 4, 5}, (
        nondegenerate, paired, sizes)


def test_f_lies_in_its_own_ideals(s5):
    assert not s5.j0_piece(s5.beta_divisor).residual(s5.f.terms)
    assert not s5.j1_piece(s5.beta_divisor).residual(s5.f.terms)


def test_nondegeneracy_lambda_family(p1xp1):
    for lam, expect in ((0, "degenerate"), (4, "degenerate"),
                        (-4, "degenerate"), (1, "nondegenerate"),
                        (2, "nondegenerate")):
        sys_ = JacobianSystem(p1xp1, lambda_section(p1xp1, lam))
        verdict = sys_.nondegenerate_decide()
        assert verdict.status == expect, lam
        if expect == "degenerate":
            assert "cone" in verdict.witness
        else:
            assert verdict.is_positive()


def test_trigonal_sections_nondegenerate(trigonal_systems):
    for d, (_, _, sys_) in trigonal_systems.items():
        assert sys_.nondegenerate_decide().status == "nondegenerate", d


def test_saturation_certificate_trigonal_d5(s5):
    # the certificate first succeeds at k = 9; the default budget misses it
    assert s5.saturation_certificate().label == "undetermined(k_max=8)"
    cert = s5.saturation_certificate(k_max=9)
    assert cert.status == "certified" and cert.k == 9
    assert cert.label == "certified(9)"
    assert cert.is_positive()
    assert s5.nondegenerate_decide().is_positive()


def test_saturation_certificate_never_certifies_degenerate(p1xp1):
    sys_ = JacobianSystem(p1xp1, lambda_section(p1xp1, 0))
    for k_max in (1, 2, 4):
        assert sys_.saturation_certificate(k_max).status == "undetermined"


def test_saturation_certificate_rejects_zero_budget(s5):
    with pytest.raises(InputError):
        s5.saturation_certificate(0)


def test_certificate_agrees_with_chart_decision(battery):
    for entry in battery:
        cert = entry["sys"].saturation_certificate(k_max=2)
        if cert.status == "certified":
            assert entry["sys"].nondegenerate_decide().status == "nondegenerate"


def test_pairing_matrix_d5(s5, h1):
    beta = s5.beta_divisor
    K = canonical_divisor(h1)
    M = pairing_matrix(s5, beta + K, 2 * beta + K)
    assert len(M) == 5 and len(M[0]) == 5
    assert linalg.rank([list(r) for r in M], 5) == 5
    N = pairing_matrix(s5, beta, 2 * beta + 2 * K)
    assert len(N) == 11 and len(N[0]) == 11
    assert linalg.rank([list(r) for r in N], 11) == 11
    Mt = pairing_matrix(s5, 2 * beta + K, beta + K)
    assert all(M[i][j] == Mt[j][i] for i in range(5) for j in range(5))


def test_pairing_matrix_rejects_wrong_classes(s5, h1):
    beta = s5.beta_divisor
    K = canonical_divisor(h1)
    with pytest.raises(InputError):
        pairing_matrix(s5, beta, beta)


def test_pairing_matrix_rejects_degenerate_top(h2):
    # without the interior monomial the section is degenerate and the top
    # graded piece is 3-dimensional, so no pairing into a line exists
    f = poly_from_text(h2, "x1^7*x2^3 + x3*x4^3 + x3^7*x2^3 + x1*x4^3")
    sys_ = JacobianSystem(h2, f)
    beta = divisor_from_labels(h2, {"x1": 7, "x2": 3})
    K = canonical_divisor(h2)
    assert r1_dim(sys_, 3 * beta + 2 * K) == 3
    with pytest.raises(InputError):
        pairing_matrix(sys_, beta + K, 2 * beta + K)


def test_multiplication_rank_by_f_is_zero(s5, h1):
    beta = s5.beta_divisor
    K = canonical_divisor(h1)
    assert multiplication_rank(s5, s5.f, beta + K, 2 * beta + K) == 0
    zero = CoxPolynomial(h1, {})
    assert multiplication_rank(s5, zero, beta + K, 2 * beta + K) == 0
    with pytest.raises(InputError):
        multiplication_rank(s5, s5.f, beta, beta)


def test_multiplication_rank_duality_lemma(s5, h1):
    # rank of alpha: R1_beta -> R1_{2beta+K} equals
    # rank of alpha: R1_{beta+K} -> R1_{2beta+2K}
    beta = s5.beta_divisor
    K = canonical_divisor(h1)
    piece = s5.j1_piece(beta + K)
    for mono in piece.coset_monomials()[:3]:
        alpha = CoxPolynomial(h1, {mono: 1})
        r_from_beta = multiplication_rank(s5, alpha, beta, 2 * beta + K)
        r_from_bk = multiplication_rank(s5, alpha, beta + K, 2 * beta + 2 * K)
        assert r_from_beta == r_from_bk == 5


def test_h2_trigonal_dimensions(h2):
    sys_ = JacobianSystem(h2, poly_from_text(h2, H2_TRIGONAL))
    beta = divisor_from_labels(h2, {"x1": 7, "x2": 3})
    assert sys_.section_dim(beta) == 20
    assert j_piece(sys_, beta).dim == 8
    assert sys_.j1_piece(beta).dim == 8
    assert r1_dim(sys_, beta) == 12


def test_j1_brute_force_spot_check(s5, h1):
    beta = s5.beta_divisor
    K = canonical_divisor(h1)
    for D in (beta, beta + K, 2 * beta + 2 * K):
        assert j1_dim_brute(s5, D) == s5.j1_piece(D).dim


def test_subspace_dump_shape(s5):
    piece = s5.j1_piece(s5.beta_divisor)
    dump = piece.to_dict()
    assert len(dump["ambient"]) == 18
    assert len(dump["rows"]) == 7
    assert len(dump["pivots"]) == 7
    assert all(isinstance(x, str) for row in dump["rows"] for x in row)


def assert_j1_rows_fixed(sys_, D):
    """Each J1 row times prod x lies in J0 at D - K, and the dim is right."""
    j1 = sys_.j1_piece(D)
    j0 = sys_.j0_piece(D - canonical_divisor(sys_.fan))
    for row in j1.rows:
        shifted = {tuple(a + 1 for a in e): c
                   for e, c in row_terms(j1.ambient, row).items()}
        assert not j0.residual(shifted)
    assert j1.dim == j1_dim_brute(sys_, D)


def test_j1_rows_shift_into_j0(battery, p1xp1):
    systems = [(entry["sys"], entry["beta"]) for entry in battery]
    b22 = divisor_from_labels(p1xp1, {"x1": 2, "x2": 2})
    systems.append((JacobianSystem(p1xp1, lambda_section(p1xp1, 0)), b22))
    b44 = divisor_from_labels(p1xp1, {"x1": 4, "x2": 4})
    rng = random.Random(44)
    dense = CoxPolynomial(p1xp1, {e: rng.choice((-3, -2, -1, 1, 2, 3))
                                  for e in monomial_basis(p1xp1, b44)})
    systems.append((JacobianSystem(p1xp1, dense), b44))
    for sys_, beta in systems:
        K = canonical_divisor(sys_.fan)
        for D in (beta, beta + K, 2 * beta + K, 2 * beta + 2 * K):
            assert_j1_rows_fixed(sys_, D)


def test_j1_piece_is_one_elimination(h1, monkeypatch):
    # the elimination reads the product rows written for it, once
    sys_ = JacobianSystem(h1, poly_from_text(h1, TRIGONAL_D5))
    calls, built = [], []
    echelon, j0_rows = linalg.echelon, JacobianSystem._j0_rows

    def counted(rows, start):
        calls.append(rows)
        return echelon(rows, start)

    def counted_rows(self, D, order):
        built.append(j0_rows(self, D, order))
        return built[-1]

    def forbidden(*args):
        raise AssertionError("j1_piece must not take this route")

    monkeypatch.setattr(linalg, "echelon", counted)
    monkeypatch.setattr(linalg, "kernel", forbidden)
    monkeypatch.setattr(JacobianSystem, "j0_piece", forbidden)
    monkeypatch.setattr(JacobianSystem, "_j0_rows", counted_rows)
    assert sys_.j1_piece(sys_.beta_divisor).dim == 7
    assert len(built) == len(calls) == 1 and calls[0] is built[0]
    assert sys_.j1_piece(sys_.beta_divisor).dim == 7
    assert len(built) == len(calls) == 1


def test_pieces_build_no_polynomials(h1, monkeypatch):
    f = poly_from_text(h1, TRIGONAL_D5)
    made = []
    init = CoxPolynomial.__init__

    def counted(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CoxPolynomial, "__init__", counted)
    # the constructor derives the integer Euler terms from f's terms
    sys_ = JacobianSystem(h1, f)
    D = 2 * sys_.beta_divisor + canonical_divisor(h1)
    assert sys_.j0_piece(D).dim > 0
    assert sys_.j1_piece(D).dim > 0
    assert made == []


def test_pieces_are_cached_by_class(h1, monkeypatch):
    sys_ = JacobianSystem(h1, poly_from_text(h1, TRIGONAL_D5))
    calls = []
    echelon = linalg.echelon

    def counted(rows, start):
        calls.append(start)
        return echelon(rows, start)

    monkeypatch.setattr(linalg, "echelon", counted)
    D = sys_.beta_divisor
    moved = D + principal_divisor(h1, (2, -1))
    assert moved != D
    piece = sys_.j1_piece(D)
    assert sys_.j1_piece(moved) is piece
    assert len(calls) == 1
    piece = sys_.j0_piece(moved)
    assert sys_.j0_piece(D) is piece
    assert len(calls) == 2


def test_j1_piece_equals_rref_then_slice(battery, generic_systems):
    # the commands read J1 at beta, beta + K, 2beta + K and 2beta + 2K; the
    # battery also checks the top class 3beta + 2K
    systems = [(entry["name"], entry["sys"], True) for entry in battery]
    systems += [(name, sys_, False) for name, sys_ in generic_systems]
    for name, sys_, top in systems:
        beta, K = sys_.beta_divisor, canonical_divisor(sys_.fan)
        classes = [beta, beta + K, 2 * beta + K, 2 * beta + 2 * K]
        for D in classes + [3 * beta + 2 * K] * top:
            piece = sys_.j1_piece(D)
            assert (piece.rows, piece.pivots) == j1_by_slicing(sys_, D), name


def exact_only(sys_):
    """A fresh system on the same section whose pieces are all eliminated
    exactly, from the products of all n Euler terms: its rank test always
    fails, closure never proves a piece full, and its J1 bounds mod P
    never meet above 0, so j1_dim eliminates."""
    for name in ("_spans_mod", "_rank_mod", "_closed"):
        if not hasattr(JacobianSystem, name):
            raise AttributeError(f"JacobianSystem has no {name} proof to disable")
    exact = JacobianSystem(sys_.fan, sys_.f)
    exact._spans_mod = lambda rows, n: False
    exact._rank_mod = lambda rows, n: 0
    exact._closed = lambda T: False
    exact._spanning_terms = tuple(g for g in exact._integral_terms if g)
    return exact


@pytest.fixture
def proofs(monkeypatch):
    """The full-piece proofs taken while the test runs: ("rank", n) for a
    rank test that proves a piece of n monomials full, ("closure", class)
    for closure at a class.  A proof in the piece builder makes the piece
    GradedSubspace.full; a closure proof in the saturation certificate
    answers for its class with no piece."""
    proved = []
    spans_mod, closed = JacobianSystem._spans_mod, JacobianSystem._closed

    def ranked(self, rows, n):
        spans = spans_mod(self, rows, n)
        if spans:
            proved.append(("rank", n))
        return spans

    def closure(self, T):
        full = closed(self, T)
        if full:
            proved.append(("closure", pic_class(self.fan, T).vec))
        return full

    monkeypatch.setattr(JacobianSystem, "_spans_mod", ranked)
    monkeypatch.setattr(JacobianSystem, "_closed", closure)
    return proved


def read_pieces(sys_, k_max, top):
    """The J0 and J1 pieces at beta, beta + K, 2beta + K, 2beta + 2K and, if
    top, 3beta + 2K, with those that saturation_certificate(k_max) builds."""
    beta, K = sys_.beta_divisor, canonical_divisor(sys_.fan)
    for D in [beta, beta + K, 2 * beta + K, 2 * beta + 2 * K] + [3 * beta + 2 * K] * top:
        sys_.j0_piece(D)
        sys_.j1_piece(D)
    sys_.saturation_certificate(k_max)
    return pieces_of(sys_)


def pieces_of(sys_):
    """The J0 and J1 pieces a system holds, by (kind, class)."""
    return {key: piece for key, piece in sys_._cache.items() if key[0] in ("j0", "j1")}


def assert_same_pieces(pieces, reference, name):
    """Every piece both systems hold is the same, and each class only the
    exact reference holds (one that closure proved without a piece) is
    full there."""
    assert pieces.keys() <= reference.keys(), name
    for key, piece in reference.items():
        if key in pieces:
            assert pieces[key] == piece, (name, key)
        else:
            assert piece.dim == len(piece.ambient), (name, key)


def test_full_piece_proofs_never_change_a_piece(battery, generic_systems, monkeypatch,
                                                proofs):
    # whatever the prime of the rank test, every piece equals the exact
    # elimination of the products of all n Euler terms; the battery's certificates run to k = 9,
    # where trigonal d=5 certifies, and it also reads the top class 3beta + 2K
    systems = [(entry["name"], entry["sys"], 9, True) for entry in battery]
    systems += [(name, sys_, 3, False) for name, sys_ in generic_systems]
    references = [read_pieces(exact_only(sys_), k_max, top)
                  for _, sys_, k_max, top in systems]
    assert proofs == []
    # the shipping prime is a prime below 2**30, so its residues are single
    # CPython digits, and the chart decision reads the same one
    assert all(linalg.P % d for d in range(2, 2**15 + 1)) and linalg.P < 2**30
    assert jacobian.P == linalg.P
    proved = {}
    for prime in (2, 3, 2**31 - 1, linalg.P):
        monkeypatch.setattr(jacobian, "P", prime)
        proofs.clear()
        for (name, sys_, k_max, top), reference in zip(systems, references):
            fresh = JacobianSystem(sys_.fan, sys_.f)
            assert len(fresh._spanning_terms) <= 3, name
            assert_same_pieces(read_pieces(fresh, k_max, top), reference, (name, prime))
        proved[prime] = len(proofs)
    # the proofs, by the rank test or by closure from one, were taken (mod 3
    # the trigonal Euler terms drop their exponent-3 terms, and no piece has
    # full rank there)
    assert proved[2**31 - 1] >= 30 and proved[linalg.P] >= 30 and proved[2] > 0, proved


def test_closure_proves_most_full_pieces(h1, monkeypatch, proofs):
    # the certificate's classes on trigonal d=5: the rank test proves a few
    # small J0 pieces full, and closure proves the larger classes from them
    # without building a piece
    sys_ = JacobianSystem(h1, poly_from_text(h1, TRIGONAL_D5))
    ranked, built = [], []
    spans_mod, j0_rows = linalg.spans_mod, JacobianSystem._j0_rows

    def counted(rows, n, p):
        ranked.append(spans_mod(rows, n, p))
        return ranked[-1]

    def counted_rows(self, D, order):
        built.append(D)
        return j0_rows(self, D, order)

    monkeypatch.setattr(linalg, "spans_mod", counted)
    monkeypatch.setattr(JacobianSystem, "_j0_rows", counted_rows)
    assert sys_.saturation_certificate(9).label == "certified(9)"
    pieces = [piece for key, piece in sys_._cache.items() if key[0] == "j0"]
    full = [piece for piece in pieces if piece.dim == len(piece.ambient)]
    closure = [proof for proof in proofs if proof[0] == "closure"]
    # each full class is proved once: by the rank test, with a full piece,
    # or by closure, with none
    assert len(full) + len(closure) == len(proofs) == 15
    assert len(full) == sum(ranked)
    assert len(closure) >= 10, sum(ranked)
    # every piece writes its rows once, also when a failed rank test
    # precedes its elimination
    assert len(ranked) > sum(ranked)
    assert len(built) == len(pieces)


def test_closure_proved_classes_are_never_listed(h1, monkeypatch, proofs):
    # the certificate on trigonal d=5 reads closure before it asks for a
    # piece, so no class that closure proves is listed, and the basis cache
    # lists every other class once
    sys_ = JacobianSystem(h1, poly_from_text(h1, TRIGONAL_D5))
    listed = Counter()
    basis = jacobian.monomial_basis

    def counted(fan, D):
        listed[pic_class(fan, D).vec] += 1
        return basis(fan, D)

    monkeypatch.setattr(jacobian, "monomial_basis", counted)
    assert sys_.saturation_certificate(9).label == "certified(9)"
    closed = [cls for kind, cls in proofs if kind == "closure"]
    assert len(closed) >= 10
    assert not listed.keys() & set(closed), listed
    assert set(listed.values()) == {1}


def test_closure_starts_only_from_a_nef_class(proofs):
    # on this F_2 section J0 is all of S_T0 at the non-nef class T0 (every
    # monomial there has the factor x4), but not all of S_T at the nef T,
    # although T - T0 is nef: S_T0 * S_{T-T0} is not all of S_T
    fan = Fan([(1, 0), (0, 1), (-1, 2), (0, -1)])
    f = poly_from_text(fan, "2*x1^4*x2^3 + 3*x1^3*x2^3*x3 + x1^2*x2^3*x3^2"
                            " + 2*x1^2*x2^2*x4 + x1*x2^3*x3^3 + 2*x1*x2^2*x3*x4"
                            " + 3*x2^3*x3^4 + 3*x2^2*x3^2*x4 + x2*x4^2")
    sys_ = JacobianSystem(fan, f)
    T0, T = TorusDivisor((-1, 0, 0, 5)), TorusDivisor((3, 2, 3, 5))
    assert not is_nef(fan, T0) and is_nef(fan, T) and is_nef(fan, T - T0)
    reference = exact_only(sys_).j0_piece(T)
    assert proofs == []
    full = sys_.j0_piece(T0)
    assert full.dim == len(full.ambient) == 30
    assert proofs == [("rank", 30)]
    piece = sys_.j0_piece(T)
    assert (piece.dim, len(piece.ambient)) == (77, 80)
    assert piece == reference
    assert proofs == [("rank", 30)]


def test_certified_random_sections_are_nondegenerate(proofs):
    # dense anticanonical sections on random fans, and a degenerate section:
    # the certificate builds the same pieces as a run without full-piece
    # proofs (rank test or closure), apart from the classes closure proves
    # full there, and a certificate implies the chart decision's verdict
    systems = []
    for seed in range(16):
        rng = random.Random(seed)
        fan = random_smooth_fan(rng, rng.randint(0, 1))
        f = CoxPolynomial(fan, {e: rng.randint(-9, 9) or 1
                                for e in monomial_basis(fan, -1 * canonical_divisor(fan))})
        systems.append((seed, JacobianSystem(fan, f)))
    p1xp1 = builtin_surface("p1xp1")
    systems.append(("lambda 0", JacobianSystem(p1xp1, lambda_section(p1xp1, 0))))
    certified = degenerate = 0
    for name, sys_ in systems:
        exact = exact_only(sys_)
        proofs.clear()
        reference = exact.saturation_certificate(6)
        assert proofs == [], name
        verdict = sys_.saturation_certificate(6)
        assert verdict == reference, name
        assert_same_pieces(pieces_of(sys_), pieces_of(exact), name)
        decision = sys_.nondegenerate_decide().status
        if verdict.status == "certified":
            assert decision == "nondegenerate", name
            certified += 1
        degenerate += decision == "degenerate"
    assert certified >= 4 and degenerate >= 1


def reference_systems(battery):
    """(name, system): the battery, the sets of the nondegeneracy reference
    tests (degenerate sections included) and dense anticanonical sections
    on random smooth fans."""
    systems = [(entry["name"], entry["sys"]) for entry in battery]
    systems += [(f"lambda {k}", sys_) for k, sys_ in enumerate(lambda_systems())]
    systems += [(f"sparse {k}", sys_) for k, sys_ in enumerate(sparse_systems(count=40))]
    systems += [(f"nodal {k}", sys_)
                for k, sys_ in enumerate(islice(nodal_systems(), 0, None, 8))]
    systems += [(f"boundary {k}", sys_) for k, (sys_, _, _) in enumerate(boundary_systems())]
    systems += [(f"dense {D}", JacobianSystem(fan, dense_section(fan, TorusDivisor(D))))
                for fan, D in DENSE]
    rng = random.Random(26)
    for k in range(8):
        fan = random_smooth_fan(rng, rng.randint(0, 2))
        f = CoxPolynomial(fan, {e: rng.randint(-9, 9) or 1
                                for e in monomial_basis(fan, -1 * canonical_divisor(fan))})
        systems.append((f"random fan {k}", JacobianSystem(fan, f)))
    return systems


def all_products(sys_, T):
    """Every product m * g of class(T), g over the system's spanning Euler
    terms, as rows over the monomials of S_T: the rows before the trim."""
    column = {e: k for k, e in enumerate(monomial_basis(sys_.fan, T))}
    return [{column[tuple(a + b for a, b in zip(e, m))]: c for e, c in g}
            for m in monomial_basis(sys_.fan, T - sys_.beta_divisor)
            for g in sys_._spanning_terms]


def saturation_classes(fan, k_max):
    """One product of each class that saturation_certificate(k_max) reads."""
    classes = {}
    for k in range(1, k_max + 1):
        for gens in combinations_with_replacement(fan.irrelevant_generators(), k):
            e = tuple(map(sum, zip(*gens)))
            classes.setdefault(pic_class(fan, TorusDivisor(e)).vec, TorusDivisor(e))
    return list(classes.values())


def test_koszul_trim_keeps_the_row_space(battery, s5):
    # the kept rows have the echelon form of all products, with the
    # spanning terms and with all n Euler terms (the exact reference's)
    cases = [(name, sys_, []) for name, sys_ in reference_systems(battery)]
    cases.append(("trigonal d=5 saturation", s5, saturation_classes(s5.fan, 9)))
    dropped = 0
    for name, sys_, extra in cases:
        beta, K = sys_.beta_divisor, canonical_divisor(sys_.fan)
        for system in (sys_, exact_only(sys_)):
            for T in [2 * beta, 2 * beta + K, 3 * beta + K] + extra:
                rows = system._j0_rows(T, monomial_basis(system.fan, T))
                products = all_products(system, T)
                assert linalg.echelon(rows, 0) == linalg.echelon(products, 0), (name, T)
                dropped += len(products) - len(rows)
    assert dropped > 1000, dropped


def test_koszul_trim_row_counts_on_the_dense_sections(generic_systems):
    # J1 at 2beta + K of the find-eta sections eliminates the rows at 2beta,
    # and every kept row is independent there.  J1 at 3beta + 2K reads the
    # rows at 3beta + K, which still outnumber the columns, so the rank test
    # runs there and fails (r1(3beta + 2K) = 1)
    counts = set()
    for name, sys_ in generic_systems:
        beta, K = sys_.beta_divisor, canonical_divisor(sys_.fan)
        T = 2 * beta
        rows = sys_._j0_rows(T, monomial_basis(sys_.fan, T))
        assert len(rows) == len(linalg.echelon(rows, 0)), name
        if "find-eta" in name:
            top = monomial_basis(sys_.fan, 3 * beta + K)
            counts.add((name.split()[3], len(rows),
                        len(sys_._j0_rows(3 * beta + K, top)), len(top)))
    assert counts == {("p1xp1", 72, 126, 121), ("hirzebruch:1", 63, 104, 100)}


def bounds_decide(sys_, D):
    """(dim, met): j1_dim on a fresh system, and whether it answered with
    no elimination (the bounds met, or the piece is proved full)."""
    fresh = JacobianSystem(sys_.fan, sys_.f)
    dim = fresh.j1_dim(D)
    return dim, ("j1", pic_class(fresh.fan, D).vec) not in fresh._cache


def test_j1_bounds_meet_only_at_the_exact_dimension(battery):
    # at beta, beta + K, 2beta + K and 2beta + 2K; the bounds decide an
    # empty piece trivially, so only the nonzero dimensions are counted
    met = 0
    for name, sys_ in reference_systems(battery):
        beta, K = sys_.beta_divisor, canonical_divisor(sys_.fan)
        exact = exact_only(sys_)
        for D in (beta, beta + K, 2 * beta + K, 2 * beta + 2 * K):
            want = j1_dim_brute(exact, D)
            assert exact.j1_dim(D) == want, (name, D)
            dim, decided = bounds_decide(sys_, D)
            assert dim == want, (name, D)
            met += decided and want > 0
    assert met >= 20, met


def test_j1_bounds_decide_the_criterion_classes_of_dense_sections(generic_systems,
                                                                   monkeypatch):
    # both classes the criterion reads, on the benchmark's generic sections
    # and on the dense p1xp1 w4:1 sections, whose dimensions were recorded
    # from the exact elimination
    def forbidden(*args):
        raise AssertionError("the bounds must decide this class")

    monkeypatch.setattr(JacobianSystem, "j1_piece", forbidden)
    monkeypatch.setattr(linalg, "echelon", forbidden)
    workloads = conftest._perfbench_workloads()
    p1xp1 = builtin_surface("p1xp1")
    systems = [(None, sys_) for _, sys_ in generic_systems]
    for a, want in ((6, 39), (8, 95), (10, 175)):
        text = workloads.dense_section_text(0, a, a, random.Random("w4:1"))
        systems.append(((7, want), JacobianSystem(p1xp1, poly_from_text(p1xp1, text))))
    for want, sys_ in systems:
        beta, K = sys_.beta_divisor, canonical_divisor(sys_.fan)
        dims = (sys_.j1_dim(beta), sys_.j1_dim(2 * beta + 2 * K))
        assert want is None or dims == want
    assert len(systems) == 3 + len(generic_systems) == 17
