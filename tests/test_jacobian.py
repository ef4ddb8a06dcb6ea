import random
from fractions import Fraction
from math import lcm

import pytest

from toricjac.cox import CoxPolynomial, monomial_basis, poly_from_text
from toricjac.divisors import (TorusDivisor, canonical_divisor, divisor_from_labels,
                               is_nef)
from toricjac.errors import InputError
from toricjac.fan import Fan, builtin_surface
from toricjac.jacobian import JacobianSystem
from toricjac import jacobian, linalg

from conftest import (H2_TRIGONAL, TRIGONAL_D5, dense_reduce, euler_terms,
                      j1_by_slicing, j1_dim_brute, j_piece, lambda_section,
                      multiplication_rank, pairing_matrix, principal_divisor,
                      random_smooth_fan, row_terms)


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
    assert s5.r1_dim(beta) == 11
    assert s5.j1_piece(beta + K).dim == 0
    assert s5.r1_dim(beta + K) == 5
    assert s5.r1_dim(2 * beta + K) == 5
    assert s5.section_dim(2 * beta + 2 * K) == 12
    assert s5.j1_piece(2 * beta + 2 * K).dim == 1
    assert s5.r1_dim(2 * beta + 2 * K) == 11
    assert s5.r1_dim(3 * beta + 2 * K) == 1


def test_beta_divisor_inferred_from_first_monomial(s5, h1):
    assert s5.beta_divisor.coeffs == tuple(sorted(s5.f.terms)[0])
    assert s5.beta_class.vec == (2, 3)


def test_j0_contains_euler_terms(s5):
    piece = s5.j0_piece(s5.beta_divisor)
    for term in euler_terms(s5):
        assert not piece.residual(term.terms)
    assert piece.ambient_dim == 18
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
            unit = [0] * piece.ambient_dim
            unit[k] = 1
            red = piece.residual({e: 1})
            assert all(isinstance(x, Fraction) and x for x in red.values())
            dense = [red.get(c, Fraction(0)) for c in range(piece.ambient_dim)]
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
    assert sys_.r1_dim(3 * beta + 2 * K) == 3
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
    assert sys_.r1_dim(beta) == 12


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
    sys_ = JacobianSystem(h1, poly_from_text(h1, TRIGONAL_D5))
    calls = []
    echelon = linalg.echelon

    def counted(rows, start):
        calls.append(len(rows))
        return echelon(rows, start)

    def forbidden(*args):
        raise AssertionError("j1_piece must not take this route")

    monkeypatch.setattr(linalg, "echelon", counted)
    monkeypatch.setattr(linalg, "kernel", forbidden)
    monkeypatch.setattr(JacobianSystem, "j0_piece", forbidden)
    assert sys_.j1_piece(sys_.beta_divisor).dim == 7
    assert len(calls) == 1
    assert sys_.j1_piece(sys_.beta_divisor).dim == 7
    assert len(calls) == 1


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
    exactly, from the products of all n Euler terms."""
    exact = JacobianSystem(sys_.fan, sys_.f)
    exact._spans_all = lambda T: False
    exact._spanning_terms = tuple(g for g in exact._integral_terms if g)
    return exact


def read_pieces(sys_, k_max, top):
    """The J0 and J1 pieces at beta, beta + K, 2beta + K, 2beta + 2K and, if
    top, 3beta + 2K, with those that saturation_certificate(k_max) reads."""
    beta, K = sys_.beta_divisor, canonical_divisor(sys_.fan)
    for D in [beta, beta + K, 2 * beta + K, 2 * beta + 2 * K] + [3 * beta + 2 * K] * top:
        sys_.j0_piece(D)
        sys_.j1_piece(D)
    sys_.saturation_certificate(k_max)
    return {key: piece for key, piece in sys_._cache.items() if key[0] != "basis"}


def test_full_piece_proofs_never_change_a_piece(battery, generic_systems, monkeypatch):
    # whatever the prime of the rank test, every piece equals the exact
    # elimination of the products of all n Euler terms; the battery's certificates run to k = 9,
    # where trigonal d=5 certifies, and it also reads the top class 3beta + 2K
    systems = [(entry["name"], entry["sys"], 9, True) for entry in battery]
    systems += [(name, sys_, 3, False) for name, sys_ in generic_systems]
    references = [read_pieces(exact_only(sys_), k_max, top)
                  for _, sys_, k_max, top in systems]
    proved = {}
    spans_all = JacobianSystem._spans_all

    def counted(self, T):
        # a proof by the rank test or by closure from one
        full = spans_all(self, T)
        proved[jacobian.P] += full
        return full

    monkeypatch.setattr(JacobianSystem, "_spans_all", counted)
    for prime in (2, 3, 2**31 - 1):
        monkeypatch.setattr(jacobian, "P", prime)
        proved[prime] = 0
        for (name, sys_, k_max, top), reference in zip(systems, references):
            fresh = JacobianSystem(sys_.fan, sys_.f)
            assert len(fresh._spanning_terms) <= 3, name
            assert read_pieces(fresh, k_max, top) == reference, (name, prime)
    # the proofs were taken (mod 3 the trigonal Euler terms drop their
    # exponent-3 terms, and no piece has full rank there)
    assert proved[2**31 - 1] >= 30 and proved[2] > 0, proved


def test_closure_proves_most_full_pieces(h1, monkeypatch):
    # the certificate's pieces on trigonal d=5: the rank test proves a few
    # small full pieces, and closure proves the larger ones from them
    sys_ = JacobianSystem(h1, poly_from_text(h1, TRIGONAL_D5))
    ranked = []
    spans_mod = linalg.spans_mod

    def counted(rows, n, p):
        ranked.append(spans_mod(rows, n, p))
        return ranked[-1]

    monkeypatch.setattr(linalg, "spans_mod", counted)
    assert sys_.saturation_certificate(9).label == "certified(9)"
    full = [key for key, piece in sys_._cache.items()
            if key[0] == "j0" and piece.dim == piece.ambient_dim]
    assert len(full) == 15
    assert len(full) - sum(ranked) >= 10, sum(ranked)


def test_closure_starts_only_from_a_nef_class():
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
    full = sys_.j0_piece(T0)
    assert full.dim == full.ambient_dim == 30
    piece = sys_.j0_piece(T)
    assert (piece.dim, piece.ambient_dim) == (77, 80)
    assert piece == exact_only(sys_).j0_piece(T)


def test_certified_random_sections_are_nondegenerate():
    # dense anticanonical sections on random fans, and a degenerate section:
    # the certificate reads the same pieces as a run without full-piece
    # proofs (rank test or closure), and a certificate implies the chart
    # decision's verdict
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
        verdict = sys_.saturation_certificate(6)
        assert verdict == exact.saturation_certificate(6), name
        pieces = [{key: piece for key, piece in s._cache.items() if key[0] != "basis"}
                  for s in (sys_, exact)]
        assert pieces[0] == pieces[1], name
        decision = sys_.nondegenerate_decide().status
        if verdict.status == "certified":
            assert decision == "nondegenerate", name
            certified += 1
        degenerate += decision == "degenerate"
    assert certified >= 4 and degenerate >= 1
