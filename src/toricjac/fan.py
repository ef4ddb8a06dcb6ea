"""Complete smooth fans in Z^2 and their combinatorial invariants.

A fan is given by its rays (primitive integer vectors); the maximal cones
are the consecutive pairs once the rays are sorted counterclockwise.  All
arithmetic is exact.
"""

from functools import cmp_to_key
from math import gcd

from .errors import InputError, InternalError


def _det(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _half(u):
    # 0 on the upper half plane including the positive x-axis, 1 below.
    return 0 if (u[1] > 0 or (u[1] == 0 and u[0] > 0)) else 1


def _angle_cmp(u, v):
    """Counterclockwise order starting from the positive x-axis."""
    hu, hv = _half(u), _half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    d = _det(u, v)
    if d > 0:
        return -1
    if d < 0:
        return 1
    return 0


def _sorted_order(rays):
    idx = list(range(len(rays)))
    idx.sort(key=cmp_to_key(lambda i, j: _angle_cmp(rays[i], rays[j])))
    return idx


def _tuple(value, what):
    """tuple(value), refused with InputError when value is not iterable."""
    try:
        return tuple(value)
    except TypeError:
        raise InputError(f"{what} must be a sequence, got {value!r}") from None


def validate(rays):
    """Check the surface-fan invariants for a ray list.

    Returns a list of human-readable diagnostics, empty exactly when the
    rays define a complete smooth toric surface.  The rays are sorted
    counterclockwise before the cone checks.
    """
    rays = [_tuple(u, "a ray") for u in _tuple(rays, "the ray list")]
    problems = []
    for i, u in enumerate(rays):
        # exact type check: a bool is an int and a float is inexact
        if len(u) != 2 or not all(type(x) is int for x in u):
            return [f"ray {i} is not an integer vector of dimension 2"]
    for i, u in enumerate(rays):
        if u == (0, 0):
            problems.append(f"ray {i} is zero")
        elif gcd(abs(u[0]), abs(u[1])) != 1:
            problems.append(f"ray {i} = {u} is not primitive")
    if problems:
        return problems
    if len(rays) < 3:
        problems.append(f"fewer than 3 rays ({len(rays)}); the fan cannot be complete")
        return problems
    seen = {}
    for i, u in enumerate(rays):
        if u in seen:
            problems.append(f"duplicate ray {u} at positions {seen[u]} and {i}")
        else:
            seen[u] = i
    if problems:
        return problems
    order = _sorted_order(rays)
    n = len(order)
    for k in range(n):
        i, j = order[k], order[(k + 1) % n]
        d = _det(rays[i], rays[j])
        if d == 1:
            continue
        if d > 1:
            problems.append(
                f"non-unimodular cone on rays {rays[i]}, {rays[j]} (det {d})")
        else:
            problems.append(
                f"incomplete fan: rays {rays[i]}, {rays[j]} leave an angular "
                f"gap of at least pi")
    return problems


class Fan:
    """A complete smooth fan in Z^2.

    Rays are stored counterclockwise starting from the smallest polar
    angle; labels name the Cox variable attached to each stored ray, so a
    caller's labelling survives the reordering.  Maximal cones are the
    consecutive index pairs (i, i+1 mod n).
    """

    def __init__(self, rays, labels=None):
        rays = [_tuple(u, "a ray") for u in _tuple(rays, "the ray list")]
        if labels is None:
            labels = [f"x{i + 1}" for i in range(len(rays))]
        labels = [str(s) for s in labels]
        if len(labels) != len(rays):
            raise InputError("need exactly one label per ray")
        if len(set(labels)) != len(labels):
            raise InputError("duplicate variable labels")
        problems = validate(rays)
        if problems:
            raise InputError("invalid fan: " + "; ".join(problems))
        order = _sorted_order(rays)
        self.rays = tuple(rays[i] for i in order)
        self.labels = tuple(labels[i] for i in order)
        self.n = len(self.rays)
        self._pos = {lab: k for k, lab in enumerate(self.labels)}
        self.hnf_rows = self._relation_hnf()
        self.basis_id = self.rays
        selfs = []
        for i in range(self.n):
            w = tuple(self.rays[i - 1][k] + self.rays[(i + 1) % self.n][k]
                      for k in range(2))
            a = _det(w, self.rays[(i + 1) % self.n])
            if (a * self.rays[i][0], a * self.rays[i][1]) != w:
                raise InternalError(f"wall relation failed at ray {i}")
            selfs.append(-a)
        self._self_intersections = tuple(selfs)

    def _relation_hnf(self):
        # Hermite form of the 2 x n matrix whose columns are the rays.  The
        # first two rays form a positively oriented lattice basis, so the
        # images of its dual basis give unit pivots in columns 0 and 1.
        u0, u1 = self.rays[0], self.rays[1]
        m1 = (u1[1], -u1[0])
        m2 = (-u0[1], u0[0])
        row1 = tuple(m1[0] * u[0] + m1[1] * u[1] for u in self.rays)
        row2 = tuple(m2[0] * u[0] + m2[1] * u[1] for u in self.rays)
        if row1[0] != 1 or row1[1] != 0 or row2[0] != 0 or row2[1] != 1:
            raise InternalError("relation matrix is not in Hermite form")
        return row1, row2

    @property
    def maximal_cones(self):
        return tuple((i, (i + 1) % self.n) for i in range(self.n))

    def position(self, label):
        try:
            return self._pos[label]
        except KeyError:
            raise InputError(f"unknown variable {label!r}; "
                             f"expected one of {', '.join(self.labels)}") from None

    def self_intersections(self):
        """Self-intersection -a_i of each invariant divisor D_i, from the wall
        relation u_{i-1} + u_{i+1} = a_i u_i (computed when the fan is built)."""
        return self._self_intersections

    def irrelevant_generators(self):
        """Exponent vectors of the irrelevant-ideal generators, one per cone."""
        gens = []
        for i, j in self.maximal_cones:
            gens.append(tuple(0 if k in (i, j) else 1 for k in range(self.n)))
        return tuple(gens)

    def monomial_label(self, exps):
        """Render an exponent tuple as a monomial string in label order."""
        factors = []
        for lab, e in sorted(zip(self.labels, exps), key=lambda t: _label_key(t[0])):
            if e == 0:
                continue
            factors.append(f"{lab}^{e}" if e > 1 else lab)
        return "*".join(factors) if factors else "1"

    def to_json(self):
        return {"rays": [list(u) for u in self.rays], "labels": list(self.labels)}

    def __repr__(self):
        pairs = ", ".join(f"{lab}={u}" for lab, u in zip(self.labels, self.rays))
        return f"Fan({pairs})"


def _label_key(label):
    # natural sort: x2 before x10
    head = label.rstrip("0123456789")
    tail = label[len(head):]
    return (head, int(tail) if tail else -1)


def build_hirzebruch(r):
    """The Hirzebruch surface of parameter r >= 0.

    Rays (-1, r), (0, 1), (1, 0), (0, -1) are labelled x1..x4 in that
    order; the stored counterclockwise order is x3, x2, x1, x4.
    """
    if r < 0:
        raise InputError("Hirzebruch parameter must be a nonnegative integer")
    return Fan([(-1, r), (0, 1), (1, 0), (0, -1)], labels=("x1", "x2", "x3", "x4"))


def build_p2():
    """The projective plane: rays e1, e2, -e1-e2."""
    return Fan([(1, 0), (0, 1), (-1, -1)])


def builtin_surface(name):
    """Resolve a surface name: hirzebruch:r, p2, or p1xp1."""
    if name == "p2":
        return build_p2()
    if name == "p1xp1":
        return build_hirzebruch(0)
    if name.startswith("hirzebruch:"):
        arg = name.split(":", 1)[1]
        try:
            r = int(arg)
        except ValueError:
            raise InputError(f"bad Hirzebruch parameter {arg!r}") from None
        return build_hirzebruch(r)
    raise InputError(f"unknown surface {name!r}; "
                     "expected hirzebruch:r, p2, or p1xp1")


def fan_from_json(obj):
    """Build a Fan from {'rays': [[a, b], ...], 'labels': [...]} data."""
    if not isinstance(obj, dict) or "rays" not in obj:
        raise InputError("fan JSON must be an object with a 'rays' list")
    rays = obj["rays"]
    if not isinstance(rays, list) or not all(
            isinstance(u, list) and len(u) == 2 and all(type(x) is int for x in u)
            for u in rays):
        raise InputError("fan JSON 'rays' must be a list of integer pairs")
    labels = obj.get("labels")
    if labels is not None and (not isinstance(labels, list)
                               or not all(isinstance(s, str) for s in labels)):
        raise InputError("fan JSON 'labels' must be a list of strings")
    return Fan([tuple(u) for u in rays], labels=labels)
