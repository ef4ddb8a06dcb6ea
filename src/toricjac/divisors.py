"""Divisors on a toric surface: Picard classes, intersection numbers,
ampleness, section polytopes, Riemann-Roch and adjunction."""

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor

from .errors import InputError, InternalError
from .fan import _det, _tuple


def _int_tuple(values, what):
    # exact type check: a bool is an int and a float is inexact
    values = _tuple(values, what)
    if not all(type(c) is int for c in values):
        raise InputError(f"{what} entries must be ints, got {values}")
    return values


@dataclass(frozen=True)
class TorusDivisor:
    """Torus-invariant divisor: one integer coefficient per stored ray."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _int_tuple(self.coeffs, "divisor"))

    def __add__(self, other):
        return TorusDivisor(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return TorusDivisor(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return TorusDivisor(tuple(-a for a in self.coeffs))

    def __mul__(self, k):
        return TorusDivisor(tuple(k * a for a in self.coeffs))

    __rmul__ = __mul__


@dataclass(frozen=True)
class PicClass:
    """Picard class in the fixed per-fan basis (basis_id names the fan)."""

    vec: tuple
    basis_id: str

    def __post_init__(self):
        object.__setattr__(self, "vec", _int_tuple(self.vec, "Picard class"))

    def _check(self, other):
        if self.basis_id != other.basis_id:
            raise InputError("Picard classes from different fans cannot be combined")

    def __add__(self, other):
        self._check(other)
        return PicClass(tuple(a + b for a, b in zip(self.vec, other.vec)), self.basis_id)

    def __sub__(self, other):
        self._check(other)
        return PicClass(tuple(a - b for a, b in zip(self.vec, other.vec)), self.basis_id)

    def __mul__(self, k):
        return PicClass(tuple(k * a for a in self.vec), self.basis_id)

    __rmul__ = __mul__

    def is_zero(self):
        return not any(self.vec)


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


def principal_divisor(fan, m):
    """div of the character of m in M: coefficients <m, u_rho>."""
    return TorusDivisor(tuple(m[0] * u[0] + m[1] * u[1] for u in fan.rays))


def pic_class(fan, D):
    """Class of D in the fixed basis.

    The coefficient vector is reduced by the Hermite rows of the relation
    matrix (unit pivots in columns 0 and 1); the surviving entries at the
    non-pivot rays are the class coordinates.
    """
    _check_len(fan, D)
    h1, h2 = fan.hnf_rows
    a = D.coeffs
    c0, c1 = a[0], a[1]
    vec = tuple(a[i] - c0 * h1[i] - c1 * h2[i] for i in range(2, fan.n))
    return PicClass(vec, fan.basis_id)


def representative(fan, c):
    """Deterministic divisor representing a class: supported off the pivot rays."""
    if c.basis_id != fan.basis_id:
        raise InputError("class was computed in a different fan basis")
    if len(c.vec) != fan.n - 2:
        raise InputError("class vector has the wrong length for this fan")
    return TorusDivisor((0, 0) + tuple(c.vec))


def intersect(fan, D, E):
    """Intersection number D.E.

    Distinct rays meet once when adjacent and never otherwise; the
    diagonal entries are the self-intersection numbers from the wall
    relations, so D.E = sum_i d_i (s_i e_i + e_{i-1} + e_{i+1}).
    """
    _check_len(fan, D)
    _check_len(fan, E)
    n = fan.n
    s = fan.self_intersections()
    e = E.coeffs
    return sum(d * (s[i] * e[i] + e[i - 1] + e[(i + 1) % n])
               for i, d in enumerate(D.coeffs))


def is_ample(fan, D):
    """Strict convexity of the support function, via the Cartier data.

    For each maximal cone the unique m_sigma with <m_sigma, u_i> = -a_i on
    the cone's rays must satisfy <m_sigma, u> > -a strictly on every other
    ray.
    """
    _check_len(fan, D)
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
            if ms[0] * u[0] + ms[1] * u[1] <= -D.coeffs[k]:
                return False
    return True


def polytope(fan, D):
    """Sorted lattice points of the section polytope {m : <m, u_rho> >= -a_rho}."""
    _check_len(fan, D)
    n = fan.n
    ineqs = tuple((fan.rays[i], -D.coeffs[i]) for i in range(n))

    def feasible(mx, my):
        return all(u[0] * mx + u[1] * my >= rhs for u, rhs in ineqs)

    verts = set()
    for i in range(n):
        for j in range(i + 1, n):
            ui, uj = fan.rays[i], fan.rays[j]
            d = _det(ui, uj)
            if d == 0:
                continue
            bi, bj = -D.coeffs[i], -D.coeffs[j]
            mx = Fraction(bi * uj[1] - bj * ui[1], d)
            my = Fraction(ui[0] * bj - uj[0] * bi, d)
            if feasible(mx, my):
                verts.add((mx, my))
    points = []
    if verts:
        xs = [v[0] for v in verts]
        ys = [v[1] for v in verts]
        for x in range(ceil(min(xs)), floor(max(xs)) + 1):
            for y in range(ceil(min(ys)), floor(max(ys)) + 1):
                if feasible(x, y):
                    points.append((x, y))
    return tuple(points)


def h0(fan, D):
    """Number of global sections: lattice points of the section polytope."""
    return len(polytope(fan, D))


def euler_characteristic(fan, D):
    """Riemann-Roch: chi(D) = D.(D - K)/2 + 1."""
    t = intersect(fan, D, D - canonical_divisor(fan))
    if t % 2:
        raise InternalError("Riemann-Roch parity failure; the fan data is corrupt")
    return t // 2 + 1


def genus(fan, D):
    """Adjunction: arithmetic genus 1 + (D.D + D.K)/2 of a curve in |D|."""
    t = intersect(fan, D, D) + intersect(fan, D, canonical_divisor(fan))
    if t % 2:
        raise InternalError("adjunction parity failure; the fan data is corrupt")
    return 1 + t // 2
