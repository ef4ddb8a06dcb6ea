"""Certification pipeline for first-order deformations of maximal rank.

evaluate() collects the graded dimensions around an ample class beta,
checks the preconditions, and compares the bound value

    dim J1(f)_beta + dim S_{2beta+2K} - dim S_beta - 2 dim S_{beta+2K}

against g - 1.  A verdict of 'certified' guarantees a deformation class
eta whose multiplication map has the maximal rank g; find_rank_g_deformation
then searches for one by seeded sampling.
"""

import random

from . import linalg
from .cox import CoxPolynomial, monomial_basis, poly_from_text
from .divisors import (TorusDivisor, canonical_divisor, divisor_from_labels,
                       genus, intersect, is_ample, pic_class)
from .errors import InputError, InternalError
from .fan import build_hirzebruch
from .jacobian import JacobianSystem
from .record import Record

DEFAULT_SEED = 1729
DEFAULT_ATTEMPTS = 32
TABLE_DEGREES = range(5, 11)  # paper-table's default d range


class CriterionReport(Record):
    """Everything the certification computed, in report order."""

    _fields = ("mode", "surface", "beta_divisor", "beta_class", "genus", "dims",
               "preconditions", "nondegeneracy", "beta_dot_k", "bound_value",
               "quick_threshold", "verdict", "failed_preconditions")

    def __init__(self, mode, surface, beta_divisor, beta_class, genus, dims, preconditions,
                 nondegeneracy, beta_dot_k, bound_value, quick_threshold, verdict,
                 failed_preconditions):
        self._set(mode, surface, beta_divisor, beta_class, genus, dims, preconditions,
                  nondegeneracy, beta_dot_k, bound_value, quick_threshold, verdict,
                  failed_preconditions)

    def to_dict(self):
        return {
            "mode": self.mode,
            "surface": self.surface,
            "beta_divisor": list(self.beta_divisor),
            "beta_class": list(self.beta_class),
            "genus": self.genus,
            "dims": dict(self.dims),
            "preconditions": {k: v for k, v in self.preconditions.items()},
            "nondegeneracy": self.nondegeneracy.label,
            "beta_dot_K": self.beta_dot_k,
            "bound_value": self.bound_value,
            "quick_threshold": self.quick_threshold,
            "verdict": self.verdict,
            "failed_preconditions": list(self.failed_preconditions),
        }

    def to_text(self):
        lines = []
        lines.append(f"mode: {self.mode}")
        rays = " ".join(f"{lab}={tuple(u)}" for lab, u in
                        zip(self.surface["labels"], self.surface["rays"]))
        lines.append(f"surface: {rays}")
        lines.append(f"beta divisor: {self.beta_divisor}  class {self.beta_class}")
        lines.append(f"genus g = {self.genus}")
        d = self.dims
        lines.append(
            "dims: S_beta=%d  S_beta+K=%d  S_beta+2K=%d  S_2beta+2K=%d  "
            "J1_beta=%d  J1_2beta+2K=%d  R1_beta=%d  fg_pencil=%d"
            % (d["S_beta"], d["S_beta_K"], d["S_beta_2K"], d["S_2beta_2K"],
               d["J1_beta"], d["J1_2beta_2K"], d["R1_beta"], d["fg_pencil"]))
        lines.append("preconditions:")
        for name, ok in self.preconditions.items():
            mark = "yes" if ok else "no"
            lines.append(f"  {name}: {mark}")
        lines.append(f"nondegeneracy: {self.nondegeneracy.label}")
        lines.append(f"beta.K = {self.beta_dot_k}")
        lines.append(f"bound value: {self.bound_value}  (must be < g-1 = {self.genus - 1})")
        if self.mode == "quick":
            lines.append(f"quick threshold: dim J1_beta <= {self.quick_threshold}")
        lines.append(f"verdict: {self.verdict}")
        if self.failed_preconditions:
            lines.append("failed: " + ", ".join(self.failed_preconditions))
        return "\n".join(lines)


def _evaluate(fan, D_beta, f, mode):
    sys = JacobianSystem(fan, f)
    if sys.beta_class != pic_class(fan, D_beta):
        raise InputError("f is not homogeneous of the class of the given divisor")
    K = canonical_divisor(fan)

    s_beta = sys.section_dim(D_beta)
    s_beta_k = sys.section_dim(D_beta + K)
    s_beta_2k = sys.section_dim(D_beta + 2 * K)
    s_2beta_2k = sys.section_dim(2 * D_beta + 2 * K)
    j1_beta = sys.j1_dim(D_beta)
    j1_2beta_2k = sys.j1_dim(2 * D_beta + 2 * K)

    ample = is_ample(fan, D_beta)
    g = genus(fan, D_beta)
    if ample and g != s_beta_k:
        raise InternalError("adjunction genus disagrees with dim S_{beta+K}")

    nd = sys.nondegenerate_decide()
    bk = intersect(fan, D_beta, K)
    k_sq = intersect(fan, K, K)
    if k_sq != 12 - fan.n:
        raise InternalError("K^2 != 12 - n on a smooth complete toric surface")

    pre = {
        "beta ample": ample,
        "f nondegenerate": nd.is_positive(),
        "J1_2beta+2K nonzero": j1_2beta_2k > 0,
        "beta.K < 0": bk < 0,
        "beta+K ample": is_ample(fan, D_beta + K),
        "beta+2K ample": is_ample(fan, D_beta + 2 * K),
    }
    required = ["beta ample", "f nondegenerate", "J1_2beta+2K nonzero", "beta.K < 0"]
    if mode == "quick":
        required += ["beta+K ample", "beta+2K ample"]
    failed = tuple(name for name in required if not pre[name])

    bound = j1_beta + s_2beta_2k - s_beta - 2 * s_beta_2k
    threshold = k_sq + 1

    if failed:
        verdict = "precondition_failed"
    elif mode == "quick":
        verdict = "certified" if j1_beta <= threshold else "inconclusive"
    else:
        verdict = "certified" if bound < g - 1 else "inconclusive"

    dims = {
        "S_beta": s_beta,
        "S_beta_K": s_beta_k,
        "S_beta_2K": s_beta_2k,
        "S_2beta_2K": s_2beta_2k,
        "J1_beta": j1_beta,
        "J1_2beta_2K": j1_2beta_2k,
        "R1_beta": s_beta - j1_beta,
        # dimension of the span of {a*f + b*g} over sections a, b of beta+2K
        "fg_pencil": 2 * s_beta_2k,
    }
    return CriterionReport(
        mode=mode,
        surface=fan.to_json(),
        beta_divisor=tuple(D_beta.coeffs),
        beta_class=sys.beta_class.vec,
        genus=g,
        dims=dims,
        preconditions=pre,
        nondegeneracy=nd,
        beta_dot_k=bk,
        bound_value=bound,
        quick_threshold=threshold,
        verdict=verdict,
        failed_preconditions=failed,
    ), sys


def evaluate(fan, D_beta, f):
    """Full criterion: certified when the preconditions hold and the
    bound value is strictly below g - 1."""
    report, _ = _evaluate(fan, D_beta, f, "full")
    return report


def quick_criterion(fan, D_beta, f):
    """Threshold form: certified when dim J1(f)_beta <= K^2 + 1, under the
    stronger ampleness preconditions on beta+K and beta+2K."""
    report, _ = _evaluate(fan, D_beta, f, "quick")
    return report


class DeformationSearch(Record):
    """Result of the seeded search for a maximal-rank deformation class;
    rank is g when found, the best rank seen otherwise."""

    _fields = ("found", "rank", "genus", "attempts_used", "seed", "eta", "matrix")
    _shown = _fields[:-1]  # the matrix is left out of the repr

    def __init__(self, found, rank, genus, attempts_used, seed, eta=None, matrix=None):
        self._set(found, rank, genus, attempts_used, seed, eta, matrix)

    def to_dict(self):
        out = {
            "found": self.found,
            "rank": self.rank,
            "genus": self.genus,
            "attempts_used": self.attempts_used,
            "seed": self.seed,
            "best_rank": self.rank,
        }
        if self.eta is not None:
            out["eta"] = self.eta.to_json()
            out["eta_text"] = self.eta.to_text()
        if self.matrix is not None:
            out["matrix"] = [[str(x) for x in row] for row in self.matrix]
        return out


def find_rank_g_deformation(fan, D_beta, f, attempts=DEFAULT_ATTEMPTS, seed=DEFAULT_SEED):
    """Search for eta in S_beta whose multiplication map has rank g.

    Only runs when evaluate() certifies the bound; coefficients are drawn
    uniformly from the integers -3..3 with a deterministic generator, so a
    recorded seed reproduces the result exactly.
    """
    if attempts < 1:
        raise InputError("attempts must be at least 1")
    report, sys = _evaluate(fan, D_beta, f, "full")
    if report.verdict != "certified":
        raise InputError(
            f"refusing to search: criterion verdict is {report.verdict!r}")
    basis = monomial_basis(fan, D_beta)
    K = canonical_divisor(fan)
    D_from = D_beta + K
    D_to = 2 * D_beta + K
    g = report.genus
    rng = random.Random(seed)
    best = 0
    for attempt in range(1, attempts + 1):
        coeffs = [rng.randint(-3, 3) for _ in basis]
        eta = CoxPolynomial(fan, dict(zip(basis, coeffs)))
        if eta.is_zero():
            continue
        matrix = sys.multiplication_matrix(eta, D_from, D_to)
        rank = 0 if not matrix else linalg.rank(matrix, len(matrix[0]))
        best = max(best, rank)
        if rank == g:
            return DeformationSearch(found=True, rank=rank, genus=g,
                                     attempts_used=attempt, seed=seed,
                                     eta=eta, matrix=matrix)
    return DeformationSearch(found=False, rank=best, genus=g,
                             attempts_used=attempts, seed=seed)


def trigonal_section(fan, d):
    """The built-in degree-d member of the trigonal family on the r=1 fan:
    x1^d x2^3 + x3^(d-3) x4^3 + x3^d x2^3 + x1^(d-3) x4^3."""
    if d < 4:
        raise InputError("the trigonal family needs d >= 4")
    return poly_from_text(
        fan,
        f"x1^{d}*x2^3 + x3^{d - 3}*x4^3 + x3^{d}*x2^3 + x1^{d - 3}*x4^3")


def trigonal_fixture(d):
    """Fan, ample divisor d*D1 + 3*D2, and section for the trigonal family."""
    fan = build_hirzebruch(1)
    D = divisor_from_labels(fan, {"x1": d, "x2": 3})
    return fan, D, trigonal_section(fan, d)


def trigonal_family_table(d_values=TABLE_DEGREES):
    """Dimension table of the trigonal family, one row per degree d."""
    rows = []
    for d in d_values:
        fan, D, f = trigonal_fixture(d)
        report = evaluate(fan, D, f)
        rows.append({
            "d": d,
            "S_beta": report.dims["S_beta"],
            "J1_beta": report.dims["J1_beta"],
            "R1_beta": report.dims["R1_beta"],
            "genus": report.genus,
            "bound_value": report.bound_value,
            "verdict": report.verdict,
        })
    return rows
