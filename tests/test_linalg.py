import copy
import random
from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from toricjac import linalg
from toricjac.cox import poly_from_text
from toricjac.divisors import canonical_divisor, divisor_from_labels
from toricjac.jacobian import JacobianSystem
from toricjac.linalg import (echelon, kernel, primitive, rank, rank_mod, reduce_vector,
                             rref, subtract_mod)

from conftest import dense_reduce, integer_row


def F(x):
    return Fraction(x)


def random_matrix(rng, nrows, ncols, den=3):
    return [[Fraction(rng.randint(-4, 4), rng.randint(1, den))
             for _ in range(ncols)] for _ in range(nrows)]


def dense_rref(rows, ncols):
    """Reference: column-by-column Gauss-Jordan on dense Fraction rows."""
    work = [[Fraction(x) for x in row] for row in rows]
    nrows = len(work)
    pivots = []
    r = 0
    for col in range(ncols):
        pr = None
        for i in range(r, nrows):
            if work[i][col]:
                pr = i
                break
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        lead = work[r][col]
        if lead != 1:
            work[r] = [x / lead for x in work[r]]
        for i in range(nrows):
            if i != r and work[i][col]:
                c = work[i][col]
                work[i] = [a - c * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return [tuple(row) for row in work[:r]], tuple(pivots)


def assert_matches_reference(rows, ncols):
    got = rref([row[:] for row in rows], ncols)
    assert got == dense_rref(rows, ncols)
    assert all(type(x) is Fraction for row in got[0] for x in row)
    return got


def test_rref_known_matrix():
    rows, pivots = rref([[F(2), F(4), F(-2)], [F(1), F(2), F(0)]], 3)
    assert pivots == (0, 2)
    assert rows == [(F(1), F(2), F(0)), (F(0), F(0), F(1))]


def test_rref_zero_and_identity():
    rows, pivots = rref([[F(0), F(0)], [F(0), F(0)]], 2)
    assert rows == [] and pivots == ()
    rows, pivots = rref([[F(0), F(3)], [F(5), F(0)]], 2)
    assert pivots == (0, 1)
    assert rows == [(F(1), F(0)), (F(0), F(1))]


def test_rank_simple():
    assert rank([[F(1), F(2)], [F(2), F(4)]], 2) == 1
    assert rank([], 4) == 0
    assert rank([[Fraction(1, 3), F(0)], [F(0), F(7)]], 2) == 2


def test_reduce_vector_membership():
    basis = echelon([{0: 1, 1: 1}, {1: 1, 2: 1}], 0)
    inside = {0: F(2), 1: F(3), 2: F(1)}  # 2*(r1) + 1*(r2) in the original span
    outside = {2: F(5)}
    assert reduce_vector(basis, inside) == {}
    assert reduce_vector(basis, outside) == {2: F(5)}


def integer_rows(mat):
    return [integer_row(enumerate(row)) for row in mat]


def test_reduce_vector_matches_dense_reference():
    rng = random.Random(13)
    for _ in range(300):
        nrows, ncols = rng.randint(0, 6), rng.randint(1, 8)
        mat = [[x if rng.random() < 0.5 else F(0) for x in row]
               for row in random_matrix(rng, nrows, ncols)]
        rows, pivots = rref(mat, ncols)
        vec = rng.choice([[rng.randint(-5, 5) for _ in range(ncols)],
                          random_matrix(rng, 1, ncols)[0]])
        got = reduce_vector(echelon(integer_rows(mat), 0),
                            {k: x for k, x in enumerate(vec) if x})
        assert all(isinstance(x, Fraction) and x for x in got.values())
        dense = [got.get(k, Fraction(0)) for k in range(ncols)]
        assert dense == dense_reduce(rows, pivots, vec)


def rank_deficient(draw, nrows, ncols, rank):
    """An nrows x ncols integer matrix C * G of rank at most rank, as dense rows."""
    entry = st.integers(-6, 6)
    gens = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=rank, max_size=rank))
    combos = draw(st.lists(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank),
                           min_size=nrows, max_size=nrows))
    return [[sum(c * g[k] for c, g in zip(combo, gens)) for k in range(ncols)]
            for combo in combos]


@st.composite
def matrices(draw):
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(1, 8))
    mat = rank_deficient(draw, nrows, ncols, draw(st.integers(0, min(nrows, ncols))))
    # sparsify whole columns so that leads spread out
    for k in draw(st.sets(st.integers(0, ncols - 1), max_size=ncols // 2)):
        for row in mat:
            row[k] = 0
    return mat, ncols


def null_space(rows, ncols):
    """Dense basis of {x : rows * x = 0}, from the reference Gauss-Jordan."""
    red, pivots = dense_rref(rows, ncols)
    basis = []
    for free in (k for k in range(ncols) if k not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, p in zip(red, pivots):
            v[p] = -row[free]
        basis.append(v)
    return basis


def tail_oracle(mat, ncols, start):
    """Dense RREF of (row space ∩ {columns >= start}), re-indexed from start.

    The combinations y of the rows with y * mat zero before start are the
    null space of the transposed head block; their images span the
    intersection.
    """
    nrows = len(mat)
    head = [[mat[i][k] for i in range(nrows)] for k in range(start)]
    combos = null_space(head, nrows) if start else (
        [[Fraction(int(i == j)) for j in range(nrows)] for i in range(nrows)])
    images = [[sum(y[i] * mat[i][k] for i in range(nrows)) for k in range(start, ncols)]
              for y in combos]
    return dense_rref(images, ncols - start)


# derandomized and without an example database, so every run is the same
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(matrices(), st.data())
def test_echelon_matches_dense_oracle_of_the_tail(matrix, data):
    mat, ncols = matrix
    for start in (0, ncols // 2, ncols, data.draw(st.integers(0, ncols))):
        basis = echelon(integer_rows(mat), start)
        width = ncols - start
        for p, b in basis.items():
            assert min(b) == p and b[p] > 0 and all(type(x) is int for x in b.values())
            assert all(q == p or q not in b for q in basis)
            assert all(0 <= c < width for c in b)
        pivots = tuple(sorted(basis))
        rows = [tuple(Fraction(basis[p].get(c, 0), basis[p][p]) for c in range(width))
                for p in pivots]
        assert (rows, pivots) == tail_oracle(mat, ncols, start)


@PROPERTY
@given(matrices(), st.data())
def test_echelon_depends_only_on_the_row_space(matrix, data):
    mat, ncols = matrix
    start = data.draw(st.integers(0, ncols))
    rows = integer_rows(mat)
    expected = echelon(rows, start)
    multiples = [{c: k * x for c, x in v.items()}
                 for v, k in zip(rows, data.draw(st.lists(
                     st.integers(-5, 5).filter(bool), min_size=len(rows), max_size=len(rows))))]
    moved = multiples + data.draw(st.lists(st.sampled_from(rows), max_size=4) if rows
                                  else st.just([]))
    moved = data.draw(st.permutations(moved))
    assert echelon(moved, start) == expected


def assert_leaves_its_input(rows, start, vec):
    before = copy.deepcopy(rows)
    basis = echelon(rows, start)
    assert rows == before
    before = copy.deepcopy(basis)
    reduce_vector(basis, vec)
    assert basis == before


@PROPERTY
@given(matrices(), st.data())
def test_echelon_and_reduce_vector_never_mutate_their_input(matrix, data):
    mat, ncols = matrix
    start = data.draw(st.integers(0, ncols))
    vec = {k: Fraction(k + 1, 2) for k in range(ncols - start)}
    assert_leaves_its_input(integer_rows(mat), start, vec)


def test_elimination_with_multiplier_one_copies_the_row():
    # the second row is eliminated against the first with multiplier 1,
    # and the vector against each basis row with multiplier 1
    assert_leaves_its_input([{0: 1, 1: 1}, {0: 1, 2: 1}], 0, {0: 1, 1: 1, 2: 1})


@PROPERTY
@given(matrices(), st.sampled_from((2, 3)))
def test_rank_is_exact_when_the_test_mod_p_fails(matrix, p):
    # at these primes the test mod p often fails, so the exact
    # elimination runs; either way the rank is the oracle's
    mat, ncols = matrix
    with mock.patch.object(linalg, "P", p):
        assert rank(mat, ncols) == len(dense_rref(mat, ncols)[0])


@PROPERTY
@given(matrices(), st.data())
def test_reduce_vector_matches_dense_reference_property(matrix, data):
    mat, ncols = matrix
    rational = st.fractions(min_value=-9, max_value=9, max_denominator=7)
    vec = data.draw(st.lists(st.one_of(st.integers(-9, 9), rational),
                             min_size=ncols, max_size=ncols))
    empty = data.draw(st.booleans())
    rows, pivots = dense_rref([] if empty else mat, ncols)
    got = reduce_vector(echelon([] if empty else integer_rows(mat), 0),
                        {k: x for k, x in enumerate(vec) if x})
    assert all(type(x) is Fraction and x for x in got.values())
    assert [got.get(k, 0) for k in range(ncols)] == dense_reduce(rows, pivots, vec)


def dense_rank_mod(mat, ncols, p):
    """Reference rank of an integer matrix mod p by dense Gaussian elimination."""
    work = [[x % p for x in row] for row in mat]
    r = 0
    for col in range(ncols):
        pr = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = pow(work[r][col], -1, p)
        for i in range(r + 1, len(work)):
            c = work[i][col] * inv
            work[i] = [(a - c * b) % p for a, b in zip(work[i], work[r])]
        r += 1
    return r


@PROPERTY
@given(matrices(), st.sampled_from((2, 3, 5, 2**31 - 1)))
@example(([[2, 0], [0, 1]], 2), 2)  # full over Q, singular mod 2
def test_rank_mod_reaches_n_at_full_rank_mod_p_and_then_over_q(matrix, p):
    mat, ncols = matrix
    full = rank_mod(integer_rows(mat), ncols, p) == ncols
    assert full == (dense_rank_mod(mat, ncols, p) == ncols)
    if full:
        assert rank(mat, ncols) == ncols


def test_modular_steps_match_dense_residues():
    # subtract_mod and primitive(v, lead, p), the steps of rank_mod and of
    # groebner's modular pass, against the same arithmetic column by column
    rng = random.Random(3)
    for p in (2, 3, 5, 7, linalg.P):
        for shift in (0, 1, 3):
            for _ in range(10):
                v = {c: x for c in range(8) if (x := rng.randrange(p))}
                b = {c: rng.randrange(1, p) for c in rng.sample(range(5), 3)}
                m = rng.randrange(1, p)
                want = {c: y for c in range(8) if
                        (y := (v.get(c, 0) - m * b.get(c - shift, 0)) % p)}
                subtract_mod(v, b, m, p, shift)
                assert v == want, (p, shift)
                if not v:
                    continue
                lead = min(v)
                u = primitive(v, lead, p)
                assert u[lead] == 1 and u.keys() == v.keys(), p
                assert all(u[c] * v[lead] % p == x for c, x in v.items()), p
                assert primitive(u, lead, p) is u


def test_rank_mod_below_n_proves_nothing():
    rows = [{0: 2}, {1: 1}]
    assert rank([[2, 0], [0, 1]], 2) == 2
    assert rank_mod(rows, 2, 2) == 1
    assert rank_mod(rows, 2, 3) == 2
    # it stops at the n-th pivot: the rows after it are never read
    assert rank_mod([{0: 1}, {1: 1}, None], 2, 5) == 2


def test_kernel_annihilates_rows():
    rng = random.Random(7)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        mat = random_matrix(rng, nrows, ncols)
        ker, _ = kernel([row[:] for row in mat], ncols)
        assert len(ker) == ncols - rank([row[:] for row in mat], ncols)
        for v in ker:
            for row in mat:
                assert sum(a * b for a, b in zip(row, v)) == 0


def test_kernel_of_invertible_is_trivial():
    assert kernel([[F(2), F(1)], [F(1), F(1)]], 2) == ([], ())


def test_rref_idempotent_random():
    rng = random.Random(11)
    for _ in range(20):
        mat = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        rows, pivots = rref(mat, len(mat[0]))
        again, pivots2 = rref([row[:] for row in rows], len(mat[0]))
        assert again == rows and pivots2 == pivots


def test_rref_matches_dense_reference_random():
    rng = random.Random(2024)
    assert_matches_reference([], 3)
    for _ in range(2400):
        nrows, ncols = rng.randint(0, 8), rng.randint(1, 8)
        mat = []
        for _ in range(nrows):
            pick = rng.random()
            if pick < 0.1:
                mat.append([0] * ncols)
            elif pick < 0.2 and mat:
                mat.append(list(rng.choice(mat)))
            else:
                mat.append([rng.choice((0, 0, rng.randint(-9, 9),
                                        Fraction(rng.randint(-9, 9), rng.randint(2, 7))))
                            for _ in range(ncols)])
        assert_matches_reference(mat, ncols)


def j0_product_matrices(sys_, D):
    """The J0 products at class(D) in ambient order and in reversed order."""
    ambient = sys_.j0_piece(D).ambient
    rows = [[row.get(k, 0) for k in range(len(ambient))]
            for row in sys_._j0_rows(D, ambient)]
    return [(rows, len(ambient)), ([row[::-1] for row in rows], len(ambient))]


def test_rref_matches_dense_reference_on_j0_products(battery, h1):
    rational = poly_from_text(h1, "1/2*x1^5*x2^3 + 3/7*x3^2*x4^3 - 5/3*x3^5*x2^3"
                                  " + x1^2*x4^3 + 2/5*x1^3*x2^2*x3*x4")
    systems = [(entry["sys"], entry["beta"]) for entry in battery]
    systems.append((JacobianSystem(h1, rational),
                    divisor_from_labels(h1, {"x1": 5, "x2": 3})))
    for sys_, beta in systems:
        K = canonical_divisor(sys_.fan)
        for D in (beta, beta - K, 2 * beta + K, 2 * beta + 2 * K):
            for rows, ncols in j0_product_matrices(sys_, D):
                assert_matches_reference(rows, ncols)
