"""Value semantics of the package's record classes: equality, hashing,
immutability, constructors and printed forms, as the dataclasses they
replace had them."""

import copy
import hashlib
import json
import pickle

import pytest

from toricjac.cox import CoxPolynomial
from toricjac.criterion import (CriterionReport, DeformationSearch, evaluate,
                                find_rank_g_deformation, trigonal_fixture)
from toricjac.divisors import PicClass, TorusDivisor, pic_class
from toricjac.fan import build_hirzebruch
from toricjac.jacobian import GradedSubspace, JacobianSystem, NondegeneracyVerdict

from conftest import principal_divisor


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def d5():
    """(fan, beta, report, search) for the trigonal d=5 section."""
    fan, D, f = trigonal_fixture(5)
    return fan, D, evaluate(fan, D, f), find_rank_g_deformation(fan, D, f)


def test_values_are_equal_and_hashed_by_their_fields(h1):
    basis = h1.basis_id
    pairs = [
        (TorusDivisor((1, 2, 0, 3)), TorusDivisor([1, 2, 0, 3]), TorusDivisor((1, 2, 0, 4))),
        (PicClass((5, 3), basis), PicClass([5, 3], basis), PicClass((5, 3), basis[::-1])),
        (NondegeneracyVerdict("certified", 3), NondegeneracyVerdict("certified", k=3),
         NondegeneracyVerdict("undetermined", 3)),
    ]
    for a, same, other in pairs:
        assert a == same and hash(a) == hash(same) and a != other
        assert {a: 1}[same] == 1 and len({a, same, other}) == 2
    # equal fields in another class are not equal
    assert TorusDivisor((5, 3)) != PicClass((5, 3), basis)
    assert NondegeneracyVerdict("nondegenerate") != "nondegenerate"


def test_equal_divisors_share_one_cached_piece(h1):
    sys_ = JacobianSystem(h1, trigonal_fixture(5)[2])
    D = TorusDivisor((5, 3, 0, 0))
    piece = sys_.j0_piece(D)
    assert sys_.j0_piece(TorusDivisor([5, 3, 0, 0])) is piece
    assert sys_.j0_piece(D + principal_divisor(h1, (1, -2))) is piece
    assert sys_.j1_dim(TorusDivisor((5, 3, 0, 0))) == sys_.j1_dim(D)
    assert len([key for key in sys_._cache if key[0] == "j0"]) == 1


def test_subspaces_and_reports_are_equal_by_fields_and_unhashable(d5):
    fan, D, report, search = d5
    a = GradedSubspace(((1, 0), (0, 1)), {0: {0: 1, 1: 2}})
    b = GradedSubspace(ambient=((1, 0), (0, 1)), basis={0: {0: 1, 1: 2}})
    assert a == b and a != GradedSubspace(a.ambient, {})
    # cached properties are no fields
    assert a.columns == {(1, 0): 0, (0, 1): 1} and a.pivots == (0,) and a == b
    assert evaluate(fan, D, trigonal_fixture(5)[2]) == report
    fields = (search.found, search.rank, search.genus, search.attempts_used, search.seed)
    assert search == DeformationSearch(*fields, search.eta, search.matrix)
    assert search != DeformationSearch(*fields)
    # a rerun of the seeded search, and a pickled copy on a new Fan, are
    # equal: eta compares its terms and the fan's rays and labels
    assert find_rank_g_deformation(fan, D, trigonal_fixture(5)[2]) == search
    clone = pickle.loads(pickle.dumps(search))
    assert clone.eta.fan is not fan and clone == search
    assert search.eta != CoxPolynomial(build_hirzebruch(2), search.eta.terms)
    assert search.eta != CoxPolynomial(fan, {})
    for value in (a, report, search, search.eta):
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)


def test_values_are_immutable(h1):
    values = [(TorusDivisor((1, 2)), ("coeffs",)),
              (PicClass((1,), h1.basis_id), ("vec", "basis_id")),
              (NondegeneracyVerdict("degenerate", witness="w"), ("status", "k", "witness")),
              (GradedSubspace((), {}), ("ambient", "basis"))]
    for value, names in values:
        for name in names:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
    assert values[0][0].coeffs == (1, 2) and values[2][0].witness == "w"


def test_reports_are_mutable():
    search = DeformationSearch(False, 2, 5, 32, 7)
    search.rank = 5
    assert search.rank == 5


def test_constructors_take_positional_and_keyword_fields_with_their_defaults():
    search = DeformationSearch(True, 5, 5, 1, 1729)
    assert (search.eta, search.matrix) == (None, None)
    assert search == DeformationSearch(found=True, rank=5, genus=5, attempts_used=1,
                                       seed=1729, eta=None, matrix=None)
    assert DeformationSearch(True, 5, 5, 1, 1729, "eta", ((1,),)).matrix == ((1,),)
    verdict = NondegeneracyVerdict("certified", 4)
    assert (verdict.k, verdict.witness, verdict.label) == (4, None, "certified(4)")
    assert NondegeneracyVerdict(status="degenerate", witness="w").k is None
    fields = dict(mode="full", surface={}, beta_divisor=(1,), beta_class=(1,), genus=0,
                  dims={}, preconditions={}, nondegeneracy=verdict, beta_dot_k=-1,
                  bound_value=0, quick_threshold=9, verdict="certified",
                  failed_preconditions=())
    assert CriterionReport(*fields.values()) == CriterionReport(**fields)
    assert TorusDivisor(coeffs=(1, 2)) == TorusDivisor((1, 2))
    assert PicClass(vec=(1,), basis_id=()) == PicClass((1,), ())
    for make in (lambda: DeformationSearch(True, 5, 5, 1),
                 lambda: DeformationSearch(True, 5, 5, 1, 1729, None, None, None),
                 lambda: NondegeneracyVerdict("certified", 4, status="certified"),
                 lambda: TorusDivisor((1,), basis=()),
                 lambda: CriterionReport(**dict(fields, extra=1))):
        with pytest.raises(TypeError):
            make()


def test_printed_forms_are_unchanged(d5):
    # the reprs and outputs the dataclass versions gave
    fan, D, report, search = d5
    assert repr(D) == "TorusDivisor(coeffs=(0, 3, 5, 0))"
    assert repr(pic_class(fan, D)) == (
        "PicClass(vec=(2, 3), basis_id=((1, 0), (0, 1), (-1, 1), (0, -1)))")
    assert repr(NondegeneracyVerdict("certified", 3)) == (
        "NondegeneracyVerdict(status='certified', k=3, witness=None)")
    assert repr(GradedSubspace(((1,),), {0: {0: 1}})) == (
        "GradedSubspace(ambient=((1,),), basis={0: {0: 1}})")
    # the matrix is left out of the repr
    assert repr(DeformationSearch(True, 1, 2, 3, 4, matrix=((1,),))) == (
        "DeformationSearch(found=True, rank=1, genus=2, attempts_used=3, seed=4, eta=None)")
    digests = [sha(repr(report)), sha(report.to_text()),
               sha(json.dumps(report.to_dict(), sort_keys=True)),
               sha(repr(search)), sha(json.dumps(search.to_dict(), sort_keys=True))]
    assert digests == PRINTED_SHA256, digests


# sha256 of the d=5 criterion report's repr, to_text and to_dict, and of
# the rank-g search's repr and to_dict, as the dataclass versions printed them
PRINTED_SHA256 = [
    "88f7e7a146c195c3da6493597e2a37a0c4a9491a7ffd28aa584fad612c1478c0",
    "10817fa0aa81125ae4a6594080f942083005afc26737b865547b505c0781d445",
    "abb7858da518300ade4c7ce0fbcfe0b45c366880aeb1086a5714052174c21e90",
    "fb24c2b004b7fa0f2aba6daffb38ac723d2a9307f28f5ee61ae2e1511841a3c4",
    "795432cd95cdd6299f479b5cbeafe7a2552e5927e36d7369ec2b92ca1898be93",
]


def test_values_survive_copy_and_pickle(d5):
    fan, D, report, search = d5
    for value in (D, pic_class(fan, D), NondegeneracyVerdict("degenerate", witness="w"),
                  GradedSubspace(((1,),), {0: {0: 1}}), report):
        for clone in (copy.copy(value), copy.deepcopy(value),
                      pickle.loads(pickle.dumps(value))):
            assert clone == value and type(clone) is type(value)
