import random
import re

import pytest

from toricjac.cox import CoxPolynomial, monomial_basis, poly_from_text
from toricjac.criterion import (DEFAULT_SEED, evaluate,
                                find_rank_g_deformation, quick_criterion,
                                trigonal_family_table, trigonal_fixture,
                                trigonal_section)
from toricjac.divisors import (TorusDivisor, canonical_divisor, divisor_from_labels,
                               h0, intersect, is_ample, is_nef)
from toricjac.errors import InputError
from toricjac.fan import build_hirzebruch
from toricjac.jacobian import JacobianSystem
from toricjac import linalg

from conftest import (QUINTIC_55, dense_section, lambda_section, moved_fan,
                      r1_dim, random_gl2z, random_smooth_fan)

REPORT_FIELDS = ("genus", "dims", "preconditions", "beta_dot_K", "bound_value",
                 "verdict", "failed_preconditions", "nondegeneracy")


def test_evaluate_trigonal_d5(family_reports):
    rep = family_reports[5]
    assert rep.mode == "full"
    assert rep.beta_class == (2, 3)
    assert rep.genus == 5
    assert rep.dims == {
        "S_beta": 18, "S_beta_K": 5, "S_beta_2K": 0, "S_2beta_2K": 12,
        "J1_beta": 7, "J1_2beta_2K": 1, "R1_beta": 11, "fg_pencil": 0,
    }
    assert rep.bound_value == 1
    assert rep.verdict == "certified"
    assert rep.failed_preconditions == ()
    assert rep.preconditions["beta+2K ample"] is False
    assert rep.beta_dot_k == -13


def test_bound_formula_invariant(family_reports):
    for rep in family_reports.values():
        d = rep.dims
        assert rep.bound_value == (d["J1_beta"] + d["S_2beta_2K"]
                                   - d["S_beta"] - 2 * d["S_beta_2K"])


def test_family_certified_with_known_bounds(family_reports):
    for d, rep in family_reports.items():
        g = 2 * d - 5
        assert rep.genus == g
        assert rep.verdict == "certified"
        assert rep.bound_value == (g - 1) - 3
        assert rep.dims["J1_beta"] == 7


def test_family_table_values():
    rows = trigonal_family_table(range(5, 11))
    assert [r["R1_beta"] for r in rows] == [11, 15, 19, 23, 27, 31]
    assert [r["S_beta"] for r in rows] == [18, 22, 26, 30, 34, 38]
    assert all(r["J1_beta"] == 7 for r in rows)
    assert all(r["verdict"] == "certified" for r in rows)
    assert [r["genus"] for r in rows] == [5, 7, 9, 11, 13, 15]


def test_quick_criterion_fails_on_trigonal(h1, trigonal_systems):
    beta, f, _ = trigonal_systems[5]
    rep = quick_criterion(h1, beta, f)
    assert rep.mode == "quick"
    assert rep.verdict == "precondition_failed"
    assert rep.failed_preconditions == ("beta+2K ample",)
    assert rep.quick_threshold == 9


def test_quick_criterion_certifies_quintic(p1xp1):
    beta = divisor_from_labels(p1xp1, {"x1": 5, "x2": 5})
    f = poly_from_text(p1xp1, QUINTIC_55)
    quick = quick_criterion(p1xp1, beta, f)
    assert quick.verdict == "certified"
    assert quick.quick_threshold == 9
    assert quick.dims["J1_beta"] == 7
    assert quick.genus == 16
    # the quick threshold is a shortcut for the same bound: the full
    # criterion must certify as well
    full = evaluate(p1xp1, beta, f)
    assert full.verdict == "certified"
    assert full.bound_value == 12


def test_five_ray_threshold(dp7_fan):
    K = canonical_divisor(dp7_fan)
    beta = -2 * K
    f = dense_section(dp7_fan, beta)
    quick = quick_criterion(dp7_fan, beta, f)
    assert quick.quick_threshold == 8 == intersect(dp7_fan, K, K) + 1
    assert quick.verdict == "precondition_failed"
    assert quick.failed_preconditions == ("beta+2K ample",)
    full = evaluate(dp7_fan, beta, f)
    assert full.verdict == "certified"
    assert full.genus == 8
    assert full.bound_value == 3
    assert full.dims["S_beta"] == 22
    assert full.dims["fg_pencil"] == 2


def test_degenerate_section_fails_precondition(p1xp1):
    beta = divisor_from_labels(p1xp1, {"x1": 2, "x2": 2})
    rep = evaluate(p1xp1, beta, lambda_section(p1xp1, 0))
    assert rep.verdict == "precondition_failed"
    assert "f nondegenerate" in rep.failed_preconditions
    assert rep.nondegeneracy.label == "degenerate"


def test_non_ample_class_fails_precondition(h1):
    beta = divisor_from_labels(h1, {"x1": 3, "x2": 3})
    f = dense_section(h1, beta)
    rep = evaluate(h1, beta, f)
    assert rep.verdict == "precondition_failed"
    assert "beta ample" in rep.failed_preconditions


def test_evaluate_rejects_class_mismatch(h1, trigonal_systems):
    _, f, _ = trigonal_systems[5]
    wrong = divisor_from_labels(h1, {"x1": 6, "x2": 3})
    with pytest.raises(InputError):
        evaluate(h1, wrong, f)


def test_find_eta_d5(h1, trigonal_systems):
    beta, f, _ = trigonal_systems[5]
    res = find_rank_g_deformation(h1, beta, f)
    assert res.found and res.rank == 5 == res.genus
    assert res.attempts_used == 1
    assert res.seed == DEFAULT_SEED
    assert res.eta.homogeneous_class().vec == (2, 3)
    matrix = [list(row) for row in res.matrix]
    assert len(matrix) == 5 and len(matrix[0]) == 5
    assert linalg.rank(matrix, 5) == 5
    again = find_rank_g_deformation(h1, beta, f)
    assert again.eta.terms == res.eta.terms and again.attempts_used == 1


def test_find_eta_d7(h1, trigonal_systems):
    beta, f, _ = trigonal_systems[7]
    res = find_rank_g_deformation(h1, beta, f)
    assert res.found and res.rank == 9 == res.genus


def test_find_eta_dict_shape(h1, trigonal_systems):
    beta, f, _ = trigonal_systems[5]
    d = find_rank_g_deformation(h1, beta, f).to_dict()
    assert d["found"] is True
    assert "eta_text" in d and "matrix" in d
    assert d["attempts_used"] == 1


def test_find_eta_refuses_degenerate(p1xp1):
    beta = divisor_from_labels(p1xp1, {"x1": 2, "x2": 2})
    with pytest.raises(InputError):
        find_rank_g_deformation(p1xp1, beta, lambda_section(p1xp1, 0))


def test_find_eta_rejects_zero_attempts(h1, trigonal_systems):
    beta, f, _ = trigonal_systems[5]
    with pytest.raises(InputError):
        find_rank_g_deformation(h1, beta, f, attempts=0)


def test_trigonal_section_inputs():
    fan = build_hirzebruch(1)
    with pytest.raises(InputError):
        trigonal_section(fan, 3)
    f4 = trigonal_section(fan, 4)
    assert f4.homogeneous_class().vec == (1, 3)
    fan5, D5, f5 = trigonal_fixture(5)
    assert D5.coeffs == (0, 3, 5, 0)
    assert f5.to_text() == "x2^3*x3^5 + x3^2*x4^3 + x1^5*x2^3 + x1^2*x4^3"


def test_report_text_rendering(family_reports):
    text = family_reports[5].to_text()
    assert "verdict: certified" in text
    assert "bound value: 1  (must be < g-1 = 4)" in text
    assert "beta ample: yes" in text
    assert "quick threshold" not in text
    qt = quick_criterion(*trigonal_fixture(5)).to_text()
    assert "quick threshold: dim J1_beta <= 9" in qt
    assert "failed: beta+2K ample" in qt


def test_report_dict_roundtrips_to_json(family_reports):
    import json
    d = family_reports[5].to_dict()
    assert json.loads(json.dumps(d)) == d
    assert d["nondegeneracy"] == "nondegenerate"
    assert d["failed_preconditions"] == []


def test_verdicts_under_gl2z_and_relabelling():
    # Sections on random fans carried to a moved fan: dense ones at small
    # ample classes keep their report and r1, and degenerate squares g^2
    # stay degenerate.  With the rays unmoved the stored order is the same,
    # so a witness changes only its labels.
    rng = random.Random(41)
    verdicts, squares = [], 0
    while len(verdicts) < 20 or squares < 20:
        fan = random_smooth_fan(rng, rng.randint(0, 2))
        D = TorusDivisor(tuple(rng.randint(0, 2) for _ in range(fan.n)))
        if not is_nef(fan, D) or not 2 <= h0(fan, D) <= 30:
            continue
        unmoved = rng.random() < 0.5
        m = ((1, 0), (0, 1)) if unmoved else random_gl2z(rng, rng.randint(1, 5))
        other, rename = moved_fan(rng, fan, m)
        old = {new: lab for lab, new in rename.items()}
        carried = [fan.position(old[lab]) for lab in other.labels]

        def systems(terms):
            f = CoxPolynomial(fan, terms)
            f2 = CoxPolynomial(other, {tuple(e[i] for i in carried): c
                                       for e, c in terms.items()})
            return JacobianSystem(fan, f), JacobianSystem(other, f2)

        g = {e: rng.randint(1, 9) for e in monomial_basis(fan, D)}
        if is_ample(fan, D):
            pair = systems(g)
            reports = [evaluate(s.fan, s.beta_divisor, s.f).to_dict() for s in pair]
            assert ({k: reports[0][k] for k in REPORT_FIELDS}
                    == {k: reports[1][k] for k in REPORT_FIELDS})
            for k in (1, 2):
                assert len({r1_dim(s, k * s.beta_divisor + canonical_divisor(s.fan))
                            for s in pair}) == 1
            verdicts.append(reports[0]["verdict"])
        if h0(fan, D) <= 6:
            square = {}
            for a, ca in g.items():
                for b, cb in g.items():
                    e = tuple(x + y for x, y in zip(a, b))
                    square[e] = square.get(e, 0) + ca * cb
            first, second = (s.nondegenerate_decide() for s in systems(square))
            assert first.status == second.status == "degenerate"
            if unmoved:
                assert second.witness == re.sub(r"\w+(?=[,)])", lambda w: rename[w[0]],
                                                first.witness)
            squares += 1
    assert {"certified", "precondition_failed"} <= set(verdicts), verdicts
