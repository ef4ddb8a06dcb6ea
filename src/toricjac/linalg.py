"""Exact rational linear algebra.

Matrices come in as rows of rationals, and rref returns dense rows of
Fractions.  rref, the one elimination loop, works inside on sparse
fraction-free rows (a dict from column to integer, divided by its
content) and converts to Fractions only when it builds its result.
reduce_vector takes and returns sparse vectors, {column: value}.
"""

from fractions import Fraction
from math import gcd, lcm


def _integer_row(row):
    """The row as {column: int}, scaled by the lcm of its denominators."""
    cells = [(c, x) for c, x in enumerate(row) if x]
    den = lcm(*(x.denominator for _, x in cells))
    return {c: x.numerator * (den // x.denominator) for c, x in cells}


def _eliminate(v, b, p):
    """A multiple of v minus a multiple of b, with a zero in column p."""
    a, m = b[p], v[p]
    g = gcd(a, m)
    a, m = a // g, m // g
    out = {c: a * x for c, x in v.items()}
    for c, x in b.items():
        y = out.get(c, 0) - m * x
        if y:
            out[c] = y
        else:
            del out[c]
    return out


def _primitive(v):
    """v divided by its content, with a positive first entry."""
    g = gcd(*v.values())
    if v[min(v)] < 0:
        g = -g
    return {c: x // g for c, x in v.items()}


def rref(rows, ncols):
    """Reduced row echelon form.

    Returns (reduced_rows, pivot_columns); reduced_rows are the nonzero
    rows, each starting with a unit pivot, with zeros above and below
    every pivot.
    """
    basis = {}  # pivot column -> primitive integer row, positive at its pivot
    for row in rows:
        v = _integer_row(row)
        for p in [c for c in v if c in basis]:
            v = _eliminate(v, basis[p], p)
        if not v:
            continue
        v = _primitive(v)
        lead = min(v)
        for p, b in basis.items():
            if lead in b:
                basis[p] = _primitive(_eliminate(b, v, lead))
        basis[lead] = v
    pivots = tuple(sorted(basis))
    zero = Fraction(0)
    out = []
    for p in pivots:
        b = basis[p]
        dense = [zero] * ncols
        for c, x in b.items():
            dense[c] = Fraction(x, b[p])
        out.append(tuple(dense))
    return out, pivots


def rank(rows, ncols):
    return len(rref(rows, ncols)[0])


def reduce_vector(rows, pivots, vec):
    """Residual {column: Fraction} of a sparse vec modulo the span of RREF rows.

    The residual is empty exactly when vec lies in the span.
    """
    v = {c: Fraction(x) for c, x in vec.items() if x}
    for row, p in zip(rows, pivots):
        c = v.get(p)
        if c:
            for k, b in enumerate(row):
                if b:
                    y = v.get(k, 0) - c * b
                    if y:
                        v[k] = y
                    else:
                        del v[k]
    return v


def kernel(rows, ncols):
    """RREF basis of the solution space of the homogeneous system rows*x = 0."""
    red, pivots = rref(rows, ncols)
    pivset = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for k, p in enumerate(pivots):
            v[p] = -red[k][free]
        basis.append(v)
    return rref(basis, ncols)
