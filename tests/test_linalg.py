import random
from fractions import Fraction

from toricjac.cox import poly_from_text
from toricjac.divisors import canonical_divisor, divisor_from_labels
from toricjac.jacobian import JacobianSystem
from toricjac.linalg import kernel, rank, reduce_vector, rref

from conftest import dense_reduce


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
    rows, pivots = rref([[F(1), F(1), F(0)], [F(0), F(1), F(1)]], 3)
    inside = {0: F(2), 1: F(3), 2: F(1)}  # 2*(r1) + 1*(r2) in the original span
    outside = {2: F(5)}
    assert reduce_vector(rows, pivots, inside) == {}
    assert reduce_vector(rows, pivots, outside) == {2: F(5)}


def test_reduce_vector_matches_dense_reference():
    rng = random.Random(13)
    for _ in range(300):
        nrows, ncols = rng.randint(0, 6), rng.randint(1, 8)
        mat = [[x if rng.random() < 0.5 else F(0) for x in row]
               for row in random_matrix(rng, nrows, ncols)]
        rows, pivots = rref(mat, ncols)
        vec = rng.choice([[rng.randint(-5, 5) for _ in range(ncols)],
                          random_matrix(rng, 1, ncols)[0]])
        got = reduce_vector(rows, pivots, {k: x for k, x in enumerate(vec) if x})
        assert all(isinstance(x, Fraction) and x for x in got.values())
        dense = [got.get(k, Fraction(0)) for k in range(ncols)]
        assert dense == dense_reduce(rows, pivots, vec)


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
    rows = sys_._j0_rows(D, ambient)
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
