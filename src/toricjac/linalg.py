"""Exact rational linear algebra.

echelon, the one elimination loop, works on sparse fraction-free rows
({column: int}, divided by their content).  rref is its dense Fraction
view; reduce_vector reduces modulo its basis with one denominator.
spans_mod answers only the one question a residue can settle exactly:
whether integer rows have full column rank.
"""

from fractions import Fraction
from math import gcd, lcm


def _integral(cells):
    """(v, den): the nonzero (column, rational) cells, times den, as {column: int} v."""
    cells = [(c, x) for c, x in cells if x]
    den = lcm(*(x.denominator for _, x in cells))
    return {c: x.numerator * (den // x.denominator) for c, x in cells}, den


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


def echelon(rows, start):
    """RREF of the row space's intersection with the columns >= start.

    Returns {pivot: primitive integer row, positive at its pivot}, columns
    re-indexed from start.  A row is reduced by the head rows (pivots
    before start, kept in forward echelon form only) until its lead
    reaches start or is a new head pivot; the head rows are then dropped.
    The output depends only on the row space, so the rows are taken
    bottom-up, the latest lead first: a new basis lead then mostly lies
    left of every pivot, and the back-reduction has little to do.
    """
    head, basis = {}, {}
    for v in sorted(rows, key=lambda v: -min(v, default=start)):
        lead = min(v, default=start)
        while lead < start and lead in head:
            v = _eliminate(v, head[lead], lead)
            lead = min(v, default=start)
        if lead < start:
            head[lead] = _primitive(v)
            continue
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
    return {p - start: {c - start: x for c, x in b.items()} for p, b in basis.items()}


def spans_mod(rows, n, p):
    """Whether the integer rows {column: int} in n columns have rank n mod p.

    Forward elimination mod the prime p only, stopped at the n-th pivot.
    Rank n mod p is a nonzero n-minor mod p, so that minor is a nonzero
    integer and the rank over Q is n too.  False proves nothing over Q.
    """
    pivots = {}
    for v in rows:
        if len(pivots) == n:
            break
        v = {c: x % p for c, x in v.items() if x % p}
        while v:
            lead = min(v)
            b = pivots.get(lead)
            if b is None:
                inv = pow(v[lead], -1, p)
                pivots[lead] = {c: x * inv % p for c, x in v.items()}
                break
            m = v[lead]
            for c, x in b.items():
                y = (v.get(c, 0) - m * x) % p
                if y:
                    v[c] = y
                else:
                    v.pop(c, None)
    return len(pivots) == n


def rref(rows, ncols):
    """(reduced_rows, pivot_columns) of dense rational rows: the nonzero
    rows of the RREF as tuples of Fractions, with unit pivots."""
    basis = echelon([_integral(enumerate(row))[0] for row in rows], 0)
    pivots = tuple(sorted(basis))
    return [dense_row(basis[p], p, ncols) for p in pivots], pivots


def dense_row(b, p, ncols):
    """The integer row b with pivot p as a tuple of Fractions, unit at p."""
    return tuple(Fraction(b.get(c, 0), b[p]) for c in range(ncols))


def rank(rows, ncols):
    return len(rref(rows, ncols)[0])


def reduce_vector(basis, vec):
    """Residual {column: Fraction} of a sparse vec modulo an echelon basis;
    it is empty exactly when vec lies in the span."""
    v, den = _integral(vec.items())
    # each basis row is zero at the other pivots, so eliminating one pivot
    # only rescales v at the others
    for p in basis.keys() & v.keys():
        b = basis[p]
        den *= b[p] // gcd(b[p], v[p])
        v = _eliminate(v, b, p)
    return {c: Fraction(x, den) for c, x in v.items()}


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
