"""Divisors on a toric surface: Picard classes, intersection numbers,
ampleness and nefness, section polytopes and adjunction."""

from itertools import combinations
from operator import mul

from .errors import InputError, InternalError
from .fan import _det, _tuple
from .record import Value

# The most monomials a graded piece may list: every basis is read from
# columns, so every command refuses a larger piece before listing it.
MAX_BASIS_DIM = 100_000


def _int_tuple(values, what):
    # exact type check: a bool is an int and a float is inexact
    values = _tuple(values, what)
    if not all(type(c) is int for c in values):
        raise InputError(f"{what} entries must be ints, got {values}")
    return values


class TorusDivisor(Value):
    """Torus-invariant divisor: one integer coefficient per stored ray."""

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", _int_tuple(coeffs, "divisor"))

    def _pairs(self, other):
        if len(self.coeffs) != len(other.coeffs):
            raise InputError(f"cannot combine divisors of {len(self.coeffs)} "
                             f"and {len(other.coeffs)} coefficients")
        return zip(self.coeffs, other.coeffs)

    def __add__(self, other):
        return TorusDivisor(tuple(a + b for a, b in self._pairs(other)))

    def __sub__(self, other):
        return TorusDivisor(tuple(a - b for a, b in self._pairs(other)))

    def __mul__(self, k):
        return TorusDivisor(tuple(k * a for a in self.coeffs))

    __rmul__ = __mul__


class PicClass(Value):
    """Picard class in the fixed per-fan basis (basis_id is the fan's rays)."""

    __slots__ = _fields = ("vec", "basis_id")

    def __init__(self, vec, basis_id):
        object.__setattr__(self, "vec", _int_tuple(vec, "Picard class"))
        object.__setattr__(self, "basis_id", basis_id)


def _check_len(fan, D):
    if len(D.coeffs) != fan.n:
        raise InputError(f"divisor has {len(D.coeffs)} coefficients, fan has {fan.n} rays")


def ray_divisor(fan, i):
    return TorusDivisor(tuple(1 if k == i else 0 for k in range(fan.n)))


def divisor_from_labels(fan, coeffs):
    """Build a divisor from {label: coefficient}; omitted labels get 0."""
    out = [0] * fan.n
    for lab, c in coeffs.items():
        out[fan.position(lab)] = c
    return TorusDivisor(tuple(out))


def canonical_divisor(fan):
    """K = -(sum of all invariant divisors)."""
    return TorusDivisor((-1,) * fan.n)


def pic_class(fan, D):
    """Class of D in the fixed basis.

    The coefficient vector is reduced by the Hermite rows of the relation
    matrix (unit pivots in columns 0 and 1); the surviving entries at the
    non-pivot rays are the class coordinates.
    """
    _check_len(fan, D)
    return PicClass(class_vec(fan, D.coeffs), fan.basis_id)


def class_vec(fan, a):
    """pic_class(fan, D).vec for the coefficients a of D, unchecked: read
    straight from the Hermite rows, so exponent tuples need no divisor."""
    h1, h2 = fan.hnf_rows
    c0, c1 = a[0], a[1]
    return tuple(a[i] - c0 * h1[i] - c1 * h2[i] for i in range(2, fan.n))


def representative(fan, c):
    """Deterministic divisor representing a class: supported off the pivot rays."""
    if c.basis_id != fan.basis_id:
        raise InputError("class was computed in a different fan basis")
    if len(c.vec) != fan.n - 2:
        raise InputError("class vector has the wrong length for this fan")
    return TorusDivisor((0, 0) + tuple(c.vec))


def _degrees(fan, D):
    """D.D_rho for every ray rho.  Distinct rays meet once when adjacent and
    never otherwise, and D_rho.D_rho = s_rho comes from the wall relations,
    so D.D_rho = s_rho d_rho + d_{rho-1} + d_{rho+1}."""
    _check_len(fan, D)
    d, s, n = D.coeffs, fan.self_intersections(), fan.n
    return [s[i] * d[i] + d[i - 1] + d[(i + 1) % n] for i in range(n)]


def intersect(fan, D, E):
    """Intersection number D.E = sum_rho e_rho (D.D_rho)."""
    _check_len(fan, E)
    return sum(map(mul, _degrees(fan, D), E.coeffs))


def is_ample(fan, D):
    """Toric Kleiman criterion: D is ample exactly when D.D_rho > 0 for
    every invariant curve D_rho (Cox-Little-Schenck, Thm 6.3.13)."""
    return min(_degrees(fan, D)) > 0


def is_nef(fan, D):
    """D is nef exactly when D.D_rho >= 0 for every rho (Cox-Little-Schenck, Thm 6.3.12)."""
    return min(_degrees(fan, D)) >= 0


def _columns(fan, D):
    """Yield (x, low, high) per nonempty column x of the section polygon,
    whose points there are the (x, y) with low <= y <= high, in the first
    cone's coordinates x = <m, u_0>, y = <m, u_1>: the rays are the columns
    of fan.hnf_rows, and the points come in lexicographic exponent order.
    The x range comes from the vertices; rays with u_y > 0 bound y below
    and rays with u_y < 0 above (a complete fan has both)."""
    _check_len(fan, D)
    ineqs = tuple(zip(zip(*fan.hnf_rows), D.coeffs))
    first, last = [], []
    for (ui, ai), (uj, aj) in combinations(ineqs, 2):
        d = _det(ui, uj)
        if d:
            # the vertex is (mx, my) / d, in integers with d > 0
            mx, my = aj * ui[1] - ai * uj[1], ai * uj[0] - aj * ui[0]
            if d < 0:
                mx, my, d = -mx, -my, -d
            if all(u[0] * mx + u[1] * my + a * d >= 0 for u, a in ineqs):
                first.append(-(-mx // d))
                last.append(mx // d)
    for x in range(min(first, default=0), max(last, default=-1) + 1):
        low = max(-((u[0] * x + a) // u[1]) for u, a in ineqs if u[1] > 0)
        high = min((u[0] * x + a) // -u[1] for u, a in ineqs if u[1] < 0)
        if low <= high:
            yield x, low, high


def columns(fan, D):
    """_columns(fan, D) as a list, refused once its points pass MAX_BASIS_DIM."""
    cols, size = [], 0
    for x, low, high in _columns(fan, D):
        size += high - low + 1
        if size > MAX_BASIS_DIM:
            raise InputError(f"the piece of class {pic_class(fan, D).vec} has more than "
                             f"{MAX_BASIS_DIM} monomials")
        cols.append((x, low, high))
    return cols


def polytope(fan, D):
    """Sorted lattice points of the section polygon {m : <m, u_rho> >= -a_rho}."""
    (a, b), (c, d) = fan.rays[:2]  # the dual basis maps (x, y) back to m
    return tuple(sorted((x * d - y * b, y * a - x * c)
                        for x, low, high in columns(fan, D) for y in range(low, high + 1)))


def h0(fan, D):
    """Number of global sections, counted by columns of the section polytope."""
    return sum(high - low + 1 for _, low, high in _columns(fan, D))


def genus(fan, D):
    """Adjunction: arithmetic genus 1 + (D.D + D.K)/2 of a curve in |D|."""
    t = intersect(fan, D, D + canonical_divisor(fan))
    if t % 2:
        raise InternalError("adjunction parity failure; the fan data is corrupt")
    return 1 + t // 2
