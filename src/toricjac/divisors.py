"""Divisors on a toric surface: Picard classes, intersection numbers,
ampleness and nefness, section polytopes and adjunction."""

from dataclasses import dataclass
from itertools import combinations

from .errors import InputError, InternalError
from .fan import _det, _tuple

# The most monomials a graded piece may list: every basis is read from
# columns, so every command refuses a larger piece before listing it.
MAX_BASIS_DIM = 100_000


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

    def __mul__(self, k):
        return TorusDivisor(tuple(k * a for a in self.coeffs))

    __rmul__ = __mul__


@dataclass(frozen=True)
class PicClass:
    """Picard class in the fixed per-fan basis (basis_id is the fan's rays)."""

    vec: tuple
    basis_id: tuple

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
    """Toric Kleiman criterion: D is ample exactly when D.D_rho > 0 for
    every invariant curve D_rho (Cox-Little-Schenck, Thm 6.3.13)."""
    return all(intersect(fan, D, ray_divisor(fan, i)) > 0 for i in range(fan.n))


def is_nef(fan, D):
    """D is nef exactly when D.D_rho >= 0 for every rho (Cox-Little-Schenck, Thm 6.3.12)."""
    return all(intersect(fan, D, ray_divisor(fan, i)) >= 0 for i in range(fan.n))


def _columns(fan, D):
    """(x, low, high) per nonempty column x of the section polytope, whose
    points there are the (x, y) with low <= y <= high.  The x range comes
    from the vertices; rays with u_y > 0 bound y below and rays with
    u_y < 0 above (a complete fan has both)."""
    _check_len(fan, D)
    ineqs = tuple(zip(fan.rays, D.coeffs))
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
    cols = []
    for x in range(min(first, default=0), max(last, default=-1) + 1):
        low = max(-((u[0] * x + a) // u[1]) for u, a in ineqs if u[1] > 0)
        high = min((u[0] * x + a) // -u[1] for u, a in ineqs if u[1] < 0)
        if low <= high:
            cols.append((x, low, high))
    return cols


def columns(fan, D):
    """_columns(fan, D), refused when its columns hold over MAX_BASIS_DIM points."""
    cols = _columns(fan, D)
    size = sum(high - low + 1 for _, low, high in cols)
    if size > MAX_BASIS_DIM:
        raise InputError(f"the piece of class {pic_class(fan, D).vec} has {size} "
                         f"monomials, above {MAX_BASIS_DIM}")
    return cols


def polytope(fan, D):
    """Sorted lattice points of the section polytope {m : <m, u_rho> >= -a_rho}."""
    return tuple((x, y) for x, low, high in columns(fan, D) for y in range(low, high + 1))


def h0(fan, D):
    """Number of global sections, counted by columns of the section polytope."""
    return sum(high - low + 1 for _, low, high in _columns(fan, D))


def genus(fan, D):
    """Adjunction: arithmetic genus 1 + (D.D + D.K)/2 of a curve in |D|."""
    t = intersect(fan, D, D) + intersect(fan, D, canonical_divisor(fan))
    if t % 2:
        raise InternalError("adjunction parity failure; the fan data is corrupt")
    return 1 + t // 2
