"""Exact-arithmetic toric Jacobian rings on smooth complete toric surfaces.

The package builds fans, divisor classes and Cox rings over the rationals,
computes graded pieces of the Jacobian-type ideals of a nondegenerate
section, and evaluates a criterion certifying a first-order deformation of
maximal rank g.
"""

from .errors import InputError, InternalError
from .fan import (Fan, build_hirzebruch, build_p2, builtin_surface,
                  fan_from_json, validate)
from .divisors import (TorusDivisor, PicClass, canonical_divisor,
                       divisor_from_labels, genus, h0, intersect, is_ample, is_nef,
                       pic_class, polytope, ray_divisor, representative)
from .cox import CoxPolynomial, monomial_basis, poly_from_json, poly_from_text
from .jacobian import GradedSubspace, JacobianSystem, NondegeneracyVerdict
from .criterion import (DEFAULT_SEED, CriterionReport, DeformationSearch,
                        evaluate, find_rank_g_deformation, quick_criterion,
                        trigonal_family_table, trigonal_fixture,
                        trigonal_section)

__version__ = "0.1.0"

__all__ = [
    "InputError", "InternalError",
    "Fan", "build_hirzebruch", "build_p2", "builtin_surface", "fan_from_json",
    "validate",
    "TorusDivisor", "PicClass", "canonical_divisor",
    "divisor_from_labels", "genus", "h0", "intersect", "is_ample", "is_nef",
    "pic_class", "polytope", "ray_divisor", "representative",
    "CoxPolynomial", "monomial_basis", "poly_from_json", "poly_from_text",
    "GradedSubspace", "JacobianSystem", "NondegeneracyVerdict",
    "DEFAULT_SEED", "CriterionReport", "DeformationSearch", "evaluate",
    "find_rank_g_deformation", "quick_criterion", "trigonal_family_table",
    "trigonal_fixture", "trigonal_section",
]
