"""Shared fixtures: surfaces, sections, an independent j1 oracle, the
test-only graded machinery (the partial-derivative ideal J and the
quotient pairings) that the library itself does not need, and rational
references for what the library computes another way (the Euler terms,
Riemann-Roch, ampleness from the Cartier data) with a random smooth fan
generator to compare them on.

The battery below is the registry of nondegenerate fixtures used by the
duality and oracle-equivalence suites.  Expectations stored with each entry
were frozen from development runs of this code path and, where a published
value exists, cross-checked against it.
"""

import contextlib
import importlib.util
import io
import signal
import threading
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from toricjac.cli import main as cli_main
from toricjac import linalg
from toricjac.cox import CoxPolynomial, monomial_basis, poly_from_text
from toricjac.criterion import evaluate, trigonal_fixture
from toricjac.divisors import (TorusDivisor, canonical_divisor,
                               divisor_from_labels, intersect, pic_class,
                               polytope, ray_divisor)
from toricjac.errors import InputError
from toricjac.fan import Fan, builtin_surface, fan_from_json
from toricjac.jacobian import GradedSubspace, JacobianSystem

TRIGONAL_D5 = "x1^5*x2^3 + x3^2*x4^3 + x3^5*x2^3 + x1^2*x4^3"
H2_TRIGONAL = "x1^7*x2^3 + x3*x4^3 + x3^7*x2^3 + x1*x4^3 + x1^3*x2*x4^2"
QUINTIC_55 = "x1^5*x2^5 + x1^5*x4^5 + x3^5*x2^5 + x3^5*x4^5 + x1^5*x2*x4^4"
DP7_RAYS = [[1, 0], [0, 1], [-1, 1], [-1, 0], [0, -1]]


def lambda_section(fan, lam):
    """The bidegree (2,2) family whose nondegeneracy depends on lam."""
    text = "x1^2*x2^2 + x1^2*x4^2 + x3^2*x2^2 + x3^2*x4^2"
    if lam:
        text += " + %d*x1*x2*x3*x4" % lam
    return poly_from_text(fan, text)


def dense_section(fan, D):
    """Sum of every monomial of the graded piece, coefficients all 1."""
    return CoxPolynomial(fan, {e: 1 for e in monomial_basis(fan, D)})


def r1_dim(sys_, D):
    """Dimension of the graded piece of the quotient ring S/J1 at class(D)."""
    return sys_.section_dim(D) - sys_.j1_piece(D).dim


def j1_dim_brute(sys_, D):
    """Brute-force dim J1_D: one membership test per ambient monomial.

    Multiplies each monomial of S_D by prod(x_rho), reduces it against the
    echelon of J0 in class D - K, and counts the independent residuals by
    their rank.  dim J1 = dim S - number of independent residuals,
    computed with no reference to j1_piece.
    """
    fan = sys_.fan
    amb = monomial_basis(fan, D)
    if not amb:
        return 0
    target = sys_.j0_piece(D - canonical_divisor(fan))
    residuals = []
    for e in amb:
        red = target.residual({tuple(a + 1 for a in e): 1})
        residuals.append([red.get(k, 0) for k in range(len(target.ambient))])
    return len(amb) - linalg.rank(residuals, len(target.ambient))


def pointwise_monomial_basis(fan, D):
    """Reference listing: one exponent tuple (<m, u_rho> + a_rho)_rho per
    point m of the section polytope, sorted."""
    return tuple(sorted(tuple(m[0] * u[0] + m[1] * u[1] + a
                              for u, a in zip(fan.rays, D.coeffs))
                        for m in polytope(fan, D)))


def partial(f, i):
    """Exact partial derivative of f with respect to variable i."""
    terms = {}
    for e, c in f.terms.items():
        if e[i]:
            de = list(e)
            de[i] -= 1
            terms[tuple(de)] = c * e[i]
    return CoxPolynomial(f.fan, terms)


def euler_term(f, i):
    """Rational Euler term x_i * df/dx_i of f, which keeps each term's class."""
    return CoxPolynomial(f.fan, {e: c * e[i] for e, c in f.terms.items() if e[i]})


def euler_terms(sys_):
    """The Euler terms of the system's section, one per stored ray."""
    return tuple(euler_term(sys_.f, i) for i in range(sys_.fan.n))


def j_piece(sys_, D):
    """Graded piece at class(D) of J = (df/dx_rho), the plain Jacobian ideal.

    Spanned by the products m * df/dx_rho, m running over the monomials of
    class(D) - beta + D_rho.
    """
    fan = sys_.fan
    ambient = monomial_basis(fan, D)
    column = {e: k for k, e in enumerate(ambient)}
    rows = []
    for rho in range(fan.n):
        g = partial(sys_.f, rho).terms
        if not ambient or not g:
            continue
        for m in monomial_basis(fan, D - sys_.beta_divisor + ray_divisor(fan, rho)):
            rows.append(integer_row((column[tuple(a + b for a, b in zip(e, m))], c)
                                    for e, c in g.items()))
    return GradedSubspace(ambient, linalg.echelon(rows, 0))


def j1_by_slicing(sys_, D):
    """(rows, pivots) of the J1 piece by the earlier route: one dense rref of
    the J0 products m * g_rho at D - K, written with the rational Euler
    terms over the whole target piece with the columns outside
    prod x_rho * S_D first, then the rows with pivots in it, sliced."""
    ambient = monomial_basis(sys_.fan, D)
    if not ambient:
        return (), ()
    target = D - canonical_divisor(sys_.fan)
    shifted = [tuple(a + 1 for a in e) for e in ambient]
    inside = set(shifted)
    order = [e for e in monomial_basis(sys_.fan, target) if e not in inside] + shifted
    offset = len(order) - len(shifted)
    column = {e: k for k, e in enumerate(order)}
    dense = []
    terms = euler_terms(sys_)
    for m in monomial_basis(sys_.fan, target - sys_.beta_divisor):
        for g in terms:
            if g.terms:
                row = [0] * len(order)
                for e, c in g.terms.items():
                    row[column[tuple(a + b for a, b in zip(e, m))]] = c
                dense.append(row)
    rows, pivots = linalg.rref(dense, len(order))
    kept = [(row[offset:], p - offset) for row, p in zip(rows, pivots) if p >= offset]
    return tuple(r for r, _ in kept), tuple(p for _, p in kept)


def pairing_matrix(sys_, Da, Db):
    """Multiplication pairing R1_a x R1_b -> R1_top on coset monomials.

    Requires class(Da) + class(Db) = 3 beta + 2 K and a one-dimensional
    quotient at the top class; the sole non-pivot monomial there is the
    normalizing generator.
    """
    fan = sys_.fan
    K = canonical_divisor(fan)
    if pic_class(fan, Da + Db) != pic_class(fan, 3 * sys_.beta_divisor + 2 * K):
        raise InputError("classes do not add up to 3*beta + 2*K")
    top = Da + Db
    if r1_dim(sys_, top) != 1:
        raise InputError("the top graded piece of the quotient ring is not a line")
    tpiece = sys_.j1_piece(top)
    tpos = tpiece.columns[tpiece.coset_monomials()[0]]
    matrix = []
    for ea in sys_.j1_piece(Da).coset_monomials():
        row = []
        for eb in sys_.j1_piece(Db).coset_monomials():
            prod = tuple(a + b for a, b in zip(ea, eb))
            row.append(tpiece.residual({prod: 1}).get(tpos, 0))
        matrix.append(row)
    return matrix


def multiplication_rank(sys_, eta, D_from, D_to):
    """Rank of multiplication by eta from R1 at D_from to R1 at D_to."""
    matrix = sys_.multiplication_matrix(eta, D_from, D_to)
    if not matrix:
        return 0
    return linalg.rank(matrix, len(matrix[0]))


def principal_divisor(fan, m):
    """div of the character of m in M: coefficients <m, u_rho>."""
    return TorusDivisor(tuple(m[0] * u[0] + m[1] * u[1] for u in fan.rays))


def euler_characteristic(fan, D):
    """Riemann-Roch: chi(D) = D.(D - K)/2 + 1."""
    t = intersect(fan, D, D - canonical_divisor(fan))
    assert t % 2 == 0, "Riemann-Roch parity failure"
    return t // 2 + 1


def cartier_is_ample(fan, D, strict=True):
    """Ampleness as strict convexity of the support function, via the
    Cartier data: for each maximal cone the unique m_sigma with
    <m_sigma, u_i> = -a_i on the cone's rays must satisfy
    <m_sigma, u> > -a strictly on every other ray.  With strict=False,
    nefness: convexity, <m_sigma, u> >= -a."""
    for i, j in fan.maximal_cones:
        ui, uj = fan.rays[i], fan.rays[j]
        # dual basis of (ui, uj); their determinant is +1
        m1 = (uj[1], -uj[0])
        m2 = (-ui[1], ui[0])
        ai, aj = D.coeffs[i], D.coeffs[j]
        ms = (-ai * m1[0] - aj * m2[0], -ai * m1[1] - aj * m2[1])
        for k in range(fan.n):
            if k == i or k == j:
                continue
            u = fan.rays[k]
            if ms[0] * u[0] + ms[1] * u[1] < -D.coeffs[k] + strict:
                return False
    return True


def reference_angle_cmp(u, v):
    """Counterclockwise comparison from the positive x-axis by half planes
    and determinants: a reference for the library's ray sort key."""
    def half(w):
        # 0 on the upper half plane including the positive x-axis, 1 below
        return 0 if (w[1] > 0 or (w[1] == 0 and w[0] > 0)) else 1
    hu, hv = half(u), half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    d = u[0] * v[1] - u[1] * v[0]
    return -1 if d > 0 else (1 if d < 0 else 0)


def reference_intersect(fan, D, E):
    """D.E = sum_i d_i (s_i e_i + e_{i-1} + e_{i+1}), summed over D's rays."""
    n = fan.n
    s = fan.self_intersections()
    e = E.coeffs
    return sum(d * (s[i] * e[i] + e[i - 1] + e[(i + 1) % n])
               for i, d in enumerate(D.coeffs))


def random_gl2z(rng, steps):
    """A random integer matrix of determinant +1 or -1, as a product of
    elementary shears, sign flips and the coordinate swap."""
    gens = (((1, 1), (0, 1)), ((1, -1), (0, 1)), ((1, 0), (1, 1)),
            ((1, 0), (-1, 1)), ((-1, 0), (0, 1)), ((0, 1), (1, 0)))
    m = ((1, 0), (0, 1))
    for _ in range(steps):
        g = rng.choice(gens)
        m = tuple(tuple(sum(g[i][k] * m[k][j] for k in range(2)) for j in range(2))
                  for i in range(2))
    return m


def random_labels(rng, n):
    """n distinct variable names in random order, such as 'y3' or '_0'."""
    names = [rng.choice(("a", "y", "Z", "_", "x_", "u1_")) + str(i) for i in range(n)]
    rng.shuffle(names)
    return names


def moved_fan(rng, fan, m):
    """(other, rename): fan with its rays mapped by the integer matrix m, its
    labels renamed at random (rename maps old to new), and the pairs of ray
    and label given in a shuffled order."""
    rename = dict(zip(fan.labels, random_labels(rng, fan.n)))
    moved = [((m[0][0] * x + m[0][1] * y, m[1][0] * x + m[1][1] * y), rename[lab])
             for (x, y), lab in zip(fan.rays, fan.labels)]
    rng.shuffle(moved)
    return Fan([u for u, _ in moved], labels=[lab for _, lab in moved]), rename


def random_smooth_fan(rng, blowups):
    """A random smooth complete fan: P2, or a Hirzebruch surface F_r
    (0 <= r <= 3) blown up at torus-fixed points.  Every smooth complete
    toric surface arises so (Oda; Fulton, section 2.5); a blow-up inserts
    u_i + u_{i+1} between adjacent rays u_i, u_{i+1}."""
    if rng.random() < 0.25:
        rays = [(1, 0), (0, 1), (-1, -1)]
    else:
        rays = [(-1, rng.randint(0, 3)), (0, 1), (1, 0), (0, -1)]
    rays = list(Fan(rays).rays)  # counterclockwise, so neighbours are adjacent
    for _ in range(blowups):
        i = rng.randrange(len(rays))
        u, v = rays[i], rays[(i + 1) % len(rays)]
        rays.insert(i + 1, (u[0] + v[0], u[1] + v[1]))
    return Fan(rays)


def row_terms(ambient, row):
    """A dense coordinate row as {exponents: coefficient}."""
    return {e: c for e, c in zip(ambient, row) if c}


def integer_row(cells):
    """Nonzero (column, rational) cells as one {column: int} row, denominators cleared."""
    cells = [(c, Fraction(x)) for c, x in cells if x]
    den = lcm(*(x.denominator for _, x in cells))
    return {c: int(x * den) for c, x in cells}


def dense_reduce(rows, pivots, vec):
    """Reference residual of a dense vec by whole-row updates, zero cells included."""
    v = [Fraction(x) for x in vec]
    for row, p in zip(rows, pivots):
        c = v[p]
        if c:
            v = [a - c * b for a, b in zip(v, row)]
    return v


def run_cli(argv):
    """Run the CLI in-process, returning (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    # one PASS/FAIL line per top-level claim, printed after capture ends
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# The most seconds one phase of a test may run.  The slowest test takes
# about 1.3 s; the loops of the chart Buchberger and of the modular
# elimination end only when each step cancels its lead, so a broken step
# would otherwise hang the suite.
TEST_SECONDS = 60


@contextlib.contextmanager
def _time_limit():
    """Fail once TEST_SECONDS pass, through SIGALRM: on POSIX and in the
    main thread only, where Python handles signals."""
    main = threading.current_thread() is threading.main_thread()
    if not (hasattr(signal, "setitimer") and main):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"ran past the limit of {TEST_SECONDS} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# The limit wraps a test's setup, which builds the session fixtures it is
# the first to use (family_reports runs the chart decision), and its call.
@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    with _time_limit():
        yield


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    with _time_limit():
        yield


@pytest.fixture(scope="session")
def h1():
    return builtin_surface("hirzebruch:1")


@pytest.fixture(scope="session")
def h2():
    return builtin_surface("hirzebruch:2")


@pytest.fixture(scope="session")
def p1xp1():
    return builtin_surface("p1xp1")


@pytest.fixture(scope="session")
def dp7_fan():
    return fan_from_json({"rays": DP7_RAYS})


@pytest.fixture(scope="session")
def trigonal_systems(h1):
    """d -> (beta divisor, section, JacobianSystem) for the d=5..10 family."""
    out = {}
    for d in range(5, 11):
        fan, beta, f = trigonal_fixture(d)
        out[d] = (beta, f, JacobianSystem(h1, f))
    return out


@pytest.fixture(scope="session")
def family_reports(h1, trigonal_systems):
    return {d: evaluate(h1, beta, f)
            for d, (beta, f, _) in trigonal_systems.items()}


@pytest.fixture(scope="session")
def s5(trigonal_systems):
    return trigonal_systems[5][2]


@pytest.fixture(scope="session")
def battery(h1, h2, p1xp1, dp7_fan, trigonal_systems):
    """Registered nondegenerate fixtures.

    Each entry: name, fan, beta divisor, system, genus, r1(beta).
    """
    entries = []
    for d in (5, 7):
        beta, f, sys_ = trigonal_systems[d]
        entries.append({
            "name": "h1-trigonal-d%d" % d, "fan": h1, "beta": beta,
            "sys": sys_, "genus": 2 * d - 5, "r1_beta": 4 * d - 9,
        })
    b2 = divisor_from_labels(h2, {"x1": 7, "x2": 3})
    entries.append({
        "name": "h2-trigonal-d7", "fan": h2, "beta": b2,
        "sys": JacobianSystem(h2, poly_from_text(h2, H2_TRIGONAL)),
        "genus": 6, "r1_beta": 12,
    })
    b22 = divisor_from_labels(p1xp1, {"x1": 2, "x2": 2})
    for lam in (1, 2):
        entries.append({
            "name": "p1xp1-lambda%d" % lam, "fan": p1xp1, "beta": b22,
            "sys": JacobianSystem(p1xp1, lambda_section(p1xp1, lam)),
            "genus": 1, "r1_beta": 1,
        })
    b55 = divisor_from_labels(p1xp1, {"x1": 5, "x2": 5})
    entries.append({
        "name": "p1xp1-quintic", "fan": p1xp1, "beta": b55,
        "sys": JacobianSystem(p1xp1, poly_from_text(p1xp1, QUINTIC_55)),
        "genus": 16, "r1_beta": 29,
    })
    bq = -2 * canonical_divisor(dp7_fan)
    entries.append({
        "name": "dp7-anticanonical2", "fan": dp7_fan, "beta": bq,
        "sys": JacobianSystem(dp7_fan, dense_section(dp7_fan, bq)),
        "genus": 8, "r1_beta": 17,
    })
    return entries


def _perfbench_workloads():
    """perfbench/workloads.py, loaded read-only without touching sys.path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def generic_systems():
    """JacobianSystems of the benchmark's generic sections at seeds 1 and 5."""
    workloads = _perfbench_workloads()
    out = []
    for seed in (1, 5):
        for command, sections in (("find-eta", workloads.FIND_ETA_SECTIONS),
                                  ("criterion", workloads.CRITERION_SECTIONS)):
            for key, argv in workloads.generic_ops(command, sections, seed, False):
                fan = builtin_surface(argv[argv.index("--surface") + 1])
                f = poly_from_text(fan, argv[argv.index("--poly") + 1])
                out.append((f"seed {seed} {key}", JacobianSystem(fan, f)))
    return out
