"""Top-level claims of the package, one test and one PASS/FAIL line each.

Every comparison below is exact: the dimensions, ranks, and verdicts are
integers and strings, never approximations.  The expected values were
frozen from independent computations (lattice-point counts, intersection
numbers, a brute-force membership oracle) and the published family values.
"""

import contextlib
import hashlib
import json
from fractions import Fraction

from toricjac import linalg
from toricjac.cox import monomial_basis
from toricjac.criterion import evaluate, find_rank_g_deformation
from toricjac.divisors import (canonical_divisor, divisor_from_labels, genus,
                               intersect, is_ample)
from toricjac.fan import build_hirzebruch

import conftest
from conftest import (TRIGONAL_D5, j1_dim_brute, j_piece, lambda_section,
                      pairing_matrix, r1_dim, run_cli)

H1_ARGS = ["--surface", "hirzebruch:1"]
# sha256 of the acceptance-10 batch: exit codes, stdout and stderr
BATCH_SHA256 = "aa274b045f392c1cda0228fd8e81640d29b270560fe0a609b2bf3376b8813df8"


@contextlib.contextmanager
def criterion(num, label):
    line = f"acceptance {num} [{label}]"
    try:
        yield
    except BaseException:
        conftest.ACCEPTANCE_LINES.append(line + ": FAIL")
        raise
    conftest.ACCEPTANCE_LINES.append(line + ": PASS")
    print(line + ": PASS")


def _ample_grid():
    """(fan, a, b, r) over every ample a*D1 + b*D2 with a<=20, b<=6."""
    for r in range(4):
        fan = build_hirzebruch(r)
        for b in range(1, 7):
            for a in range(r * b + 1, 21):
                yield fan, a, b, r


def test_acceptance_01_trigonal_graded_dimensions(trigonal_systems):
    with criterion(1, "trigonal graded dimensions"):
        for d in range(5, 11):
            beta, f, sys_ = trigonal_systems[d]
            assert r1_dim(sys_, beta) == 4 * d - 9
            assert sys_.j1_piece(beta).dim == 7
        assert [4 * d - 9 for d in range(5, 11)] == [11, 15, 19, 23, 27, 31]


def test_acceptance_02_certificate_across_family(family_reports):
    with criterion(2, "certificate fires across the family"):
        for d in range(5, 11):
            rep = family_reports[d]
            g = 2 * d - 5
            assert rep.verdict == "certified"
            assert rep.genus == g
            assert rep.bound_value == (g - 1) - 3


def test_acceptance_03_explicit_maximal_rank_deformation(h1, trigonal_systems):
    with criterion(3, "explicit maximal-rank deformation"):
        for d in (5, 7):
            beta, f, _ = trigonal_systems[d]
            res = find_rank_g_deformation(h1, beta, f, attempts=32)
            assert res.found
            assert res.rank == res.genus == 2 * d - 5
            assert res.attempts_used <= 32
            rerun = find_rank_g_deformation(h1, beta, f, attempts=32,
                                            seed=res.seed)
            assert rerun.eta.terms == res.eta.terms
            assert rerun.rank == res.rank
            assert rerun.attempts_used == res.attempts_used


def test_acceptance_04_sections_count_equals_riemann_roch():
    with criterion(4, "section count equals Riemann-Roch"):
        for fan, a, b, r in _ample_grid():
            D = divisor_from_labels(fan, {"x1": a, "x2": b})
            assert is_ample(fan, D)
            K = canonical_divisor(fan)
            count = len(monomial_basis(fan, D))
            chi = 1 + Fraction(intersect(fan, D, D)
                               - intersect(fan, D, K), 2)
            closed = (a + 1) * (b + 1) - r * b * (b + 1) // 2
            assert count == chi == closed


def test_acceptance_05_adjunction_genus_three_ways(h1, trigonal_systems):
    with criterion(5, "adjunction genus three ways"):
        for fan, a, b, r in _ample_grid():
            D = divisor_from_labels(fan, {"x1": a, "x2": b})
            closed = (b - 1) * (a - 1 - Fraction(r * b, 2))
            assert genus(fan, D) == closed
        K = canonical_divisor(h1)
        for d in range(5, 11):
            beta, f, sys_ = trigonal_systems[d]
            g = genus(h1, beta)
            assert g == 2 * d - 5
            assert g == sys_.section_dim(beta + K)
            assert g == r1_dim(sys_, beta + K)


def test_acceptance_06_lambda_family_nondegeneracy(p1xp1):
    with criterion(6, "lambda family nondegeneracy"):
        from toricjac.jacobian import JacobianSystem
        expected = {0: "degenerate", 4: "degenerate", -4: "degenerate",
                    1: "nondegenerate", 2: "nondegenerate"}
        for lam, label in expected.items():
            verdict = JacobianSystem(
                p1xp1, lambda_section(p1xp1, lam)).nondegenerate_decide()
            assert verdict.label == label, lam


def test_acceptance_07_duality_and_perfect_pairings(battery):
    with criterion(7, "top-class duality and perfect pairings"):
        for entry in battery:
            fan, beta, sys_ = entry["fan"], entry["beta"], entry["sys"]
            K = canonical_divisor(fan)
            assert r1_dim(sys_, 3 * beta + 2 * K) == 1, entry["name"]
            ra = r1_dim(sys_, beta + K)
            assert ra == r1_dim(sys_, 2 * beta + K), entry["name"]
            rb = r1_dim(sys_, beta)
            assert rb == r1_dim(sys_, 2 * beta + 2 * K) == entry["r1_beta"]
            m = pairing_matrix(sys_, beta + K, 2 * beta + K)
            if ra:
                assert linalg.rank(m, len(m[0])) == ra, entry["name"]
            m = pairing_matrix(sys_, beta, 2 * beta + 2 * K)
            assert linalg.rank(m, len(m[0])) == rb, entry["name"]


def test_acceptance_08_partial_derivative_ideal_piece(battery):
    with criterion(8, "partial-derivative ideal piece"):
        by_name = {e["name"]: e for e in battery}
        for name, r in (("h1-trigonal-d5", 1), ("h2-trigonal-d7", 2)):
            entry = by_name[name]
            sys_, beta = entry["sys"], entry["beta"]
            jp = j_piece(sys_, beta)
            assert jp.dim == r + 6
            j1p = sys_.j1_piece(beta)
            assert jp.ambient == j1p.ambient
            for row in jp.rows:
                assert not j1p.residual(conftest.row_terms(jp.ambient, row))


def test_acceptance_09_independent_j1_recomputation(battery):
    with criterion(9, "independent J1 recomputation"):
        for entry in battery:
            fan, beta, sys_ = entry["fan"], entry["beta"], entry["sys"]
            K = canonical_divisor(fan)
            for D in (beta, beta + K, 2 * beta + 2 * K):
                assert j1_dim_brute(sys_, D) == sys_.j1_piece(D).dim, \
                    entry["name"]


def test_acceptance_10_byte_identical_reruns(tmp_path):
    with criterion(10, "byte-identical reruns"):
        fan_file = tmp_path / "fan.json"
        fan_file.write_text(json.dumps(
            {"rays": [[1, 0], [0, 1], [-1, 1], [-1, 0], [0, -1]]}))
        batch = [
            ["describe-surface"] + H1_ARGS,
            ["describe-surface", "--json"] + H1_ARGS,
            ["describe-surface", "--fan-file", str(fan_file)],
            ["paper-table"],
            ["paper-table", "--json"],
            ["criterion", "--class", "5,3", "--poly", TRIGONAL_D5] + H1_ARGS,
            ["criterion", "--json", "--class", "5,3",
             "--poly", TRIGONAL_D5] + H1_ARGS,
            ["quick-criterion", "--surface", "p1xp1", "--class", "5,5",
             "--poly", conftest.QUINTIC_55],
            ["hilbert", "--poly", TRIGONAL_D5, "--class-of", "2beta+2K",
             "--dump-subspaces", "--json"] + H1_ARGS,
            ["nondegenerate", "--poly", TRIGONAL_D5, "--kmax", "9"] + H1_ARGS,
            ["basis", "--class", "2,1"] + H1_ARGS,
            ["find-eta", "--class", "5,3", "--poly", TRIGONAL_D5] + H1_ARGS,
            ["find-eta", "--json", "--class", "5,3",
             "--poly", TRIGONAL_D5] + H1_ARGS,
        ]

        def run_batch():
            chunks = []
            for argv in batch:
                code, out, err = run_cli(argv)
                chunks.append("%d\x00%s\x00%s" % (code, out, err))
            return "\x1e".join(chunks).encode()

        first = run_batch()
        second = run_batch()
        assert first == second
        assert len(first) > 4000
        # pinned, so the batch must also match the outputs it had when the
        # digest was taken, not only itself
        assert hashlib.sha256(first).hexdigest() == BATCH_SHA256


def test_acceptance_11_family_past_genus_15_through_the_cli():
    with criterion(11, "trigonal family d=5..24 through the CLI"):
        fraction_rank = conftest._perfbench_workloads().fraction_rank
        code, out, err = run_cli(["paper-table", "--dmin", "5", "--dmax", "24",
                                  "--json"])
        assert (code, err) == (0, "")
        rows = json.loads(out)
        assert [row["d"] for row in rows] == list(range(5, 25))
        for row in rows:
            assert row["verdict"] == "certified", row
            assert row["genus"] == 2 * row["d"] - 5
            assert row["bound_value"] == row["genus"] - 4, row
        for d in range(5, 25):
            f_d = f"x1^{d}*x2^3 + x3^{d - 3}*x4^3 + x3^{d}*x2^3 + x1^{d - 3}*x4^3"
            code, out, err = run_cli(["find-eta", "--json", "--class", f"{d},3",
                                      "--poly", f_d] + H1_ARGS)
            assert (code, err) == (0, ""), d
            result = json.loads(out)
            assert result["seed"] == 1729
            assert result["found"], d
            assert result["rank"] == result["genus"] == 2 * d - 5
            assert fraction_rank(result["matrix"]) == result["rank"], d
