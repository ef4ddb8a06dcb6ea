"""Exact rational linear algebra.

echelon, the one elimination engine, works on sparse fraction-free rows
({column: int}, divided by their content) in two passes: a forward pass
to echelon form, then one back-substitution from the last pivot to the
first.  The back-substitution clears each row against rows that are
already reduced, and a reduced row is zero at every other pivot, so it
holds at most one entry per non-pivot column besides its own pivot: the
rows stay as sparse as the piece's corank allows however dense the input.
Both row arithmetics of the package live here, shared with groebner.
Over Z, integral, eliminate and primitive serve echelon and the integer
chart pass; mod a prime p, subtract_mod and primitive(v, lead, p) serve
rank_mod and the modular chart pass.  rank_mod answers only what a
residue settles exactly: the rank mod p of integer rows is a lower bound
on their rank over Q, so rank n in n columns (spans_mod) proves full
column rank; rank asks that before it eliminates.  reduce_vector reduces
modulo its basis with one denominator.
No library code calls rref, echelon's dense Fraction view, or kernel:
they are test oracles, and perfbench/spans.py wraps them by name.
"""

from fractions import Fraction
from math import gcd, lcm

# The prime of every full-rank test mod p.  Any prime gives the same
# answers; a small one only sends more work to the exact routes.  It is
# the largest prime below 2**30, so every residue is a single 30-bit
# CPython digit and its arithmetic takes the one-digit fast paths.
P = 2**30 - 35


def integral(cells):
    """(v, den): the nonzero (column, rational) cells, times den, as {column: int} v."""
    cells = [(c, x) for c, x in cells if x]
    den = lcm(*(x.denominator for _, x in cells))
    return {c: x.numerator * (den // x.denominator) for c, x in cells}, den


def eliminate(v, b, p):
    """(b[p] * v - v[p] * b) / gcd(b[p], v[p]): a new row, zero in column p."""
    a, m = b[p], v[p]
    g = gcd(a, m)
    a, m = a // g, m // g
    out = dict(v) if a == 1 else {c: a * x for c, x in v.items()}
    for c, x in b.items():
        y = out.get(c, 0) - m * x
        if y:
            out[c] = y
        else:
            del out[c]
    return out


def subtract_mod(v, b, m, p, shift=0):
    """v - m * (b with its columns moved by shift) mod the prime p, in place.
    m and b's entries are nonzero mod p, so a cell that turns zero was in v."""
    for c, x in b.items():
        c += shift
        y = (v.get(c, 0) - m * x) % p
        if y:
            v[c] = y
        else:
            del v[c]


def primitive(v, lead, p=None):
    """v divided by its content, positive in column lead, or with p a prime,
    the residues v scaled to 1 at lead; v itself if it already is."""
    if p:
        inv = pow(v[lead], -1, p)
        return v if inv == 1 else {c: x * inv % p for c, x in v.items()}
    g = gcd(*v.values())
    if v[lead] < 0:
        g = -g
    return v if g == 1 else {c: x // g for c, x in v.items()}


def echelon(rows, start):
    """RREF of the row space's intersection with the columns >= start.

    Returns {pivot: primitive integer row, positive at its pivot}, columns
    re-indexed from start.  Two passes:

    - forward: each row is eliminated at its lead while that lead is
      already a pivot, then stored primitive under its new lead.  The rows
      with a lead >= start span the intersection; the others are dropped.
      The rows are taken bottom-up, the latest lead first, so a new lead
      mostly lies left of every pivot and needs no elimination at all.
    - back-substitution: the pivots >= start are visited from the latest
      to the earliest, and each row is cleared at the later pivots against
      the rows already reduced, then made primitive once.  A reduced row
      holds entries only at its pivot and at non-pivot columns, so
      clearing one pivot brings in no other pivot: a row needs one
      elimination per later pivot it holds, each against a short row.

    The output depends only on the row space.
    """
    pivots = {}
    for v in sorted(rows, key=lambda v: -min(v, default=start)):
        lead = min(v, default=None)
        while lead in pivots:
            v = eliminate(v, pivots[lead], lead)
            lead = min(v, default=None)
        if lead is not None:
            pivots[lead] = primitive(v, lead)
    basis = {}
    for p in sorted((p for p in pivots if p >= start), reverse=True):
        v = pivots[p]
        for c in [c for c in v if c in basis]:
            v = eliminate(v, basis[c], c)
        basis[p] = primitive(v, p)
    # rebuilt here, so no output row is an input row that primitive returned
    return {p - start: {c - start: x for c, x in b.items()} for p, b in basis.items()}


def rank_mod(rows, n, p):
    """min(n, rank mod the prime p) of the integer rows {column: int}.

    Forward elimination mod p only, stopped at the n-th pivot.  Rank r
    mod p is a nonzero r-minor mod p, so that minor is a nonzero integer:
    the result is a lower bound on the rank over Q.
    """
    pivots = {}
    for v in rows:
        if len(pivots) == n:
            break
        v = {c: x % p for c, x in v.items() if x % p}
        while v:
            lead = min(v)
            if lead not in pivots:
                pivots[lead] = primitive(v, lead, p)
                break
            subtract_mod(v, pivots[lead], v[lead], p)
    return len(pivots)


def spans_mod(rows, n, p):
    """Whether the integer rows in n columns have rank n mod p, which
    proves rank n over Q (rank_mod).  False proves nothing over Q."""
    return rank_mod(rows, n, p) == n


def rref(rows, ncols):
    """(reduced_rows, pivot_columns) of dense rational rows: the nonzero
    rows of the RREF as tuples of Fractions, with unit pivots."""
    basis = echelon([integral(enumerate(row))[0] for row in rows], 0)
    pivots = tuple(sorted(basis))
    return [dense_row(basis[p], p, ncols) for p in pivots], pivots


def dense_row(b, p, ncols):
    """The integer row b with pivot p as a tuple of Fractions, unit at p."""
    return tuple(Fraction(b.get(c, 0), b[p]) for c in range(ncols))


def rank(rows, ncols):
    """Rank of dense rational rows in ncols columns: ncols when the rows
    span mod P, which proves it over Q, and otherwise exactly."""
    ints = [integral(enumerate(row))[0] for row in rows]
    if spans_mod(ints, ncols, P):
        return ncols
    return len(echelon(ints, 0))


def reduce_vector(basis, vec):
    """Residual {column: Fraction} of a sparse vec modulo an echelon basis;
    it is empty exactly when vec lies in the span."""
    v, den = integral(vec.items())
    # each basis row is zero at the other pivots, so eliminating one pivot
    # only rescales v at the others
    for p in basis.keys() & v.keys():
        b = basis[p]
        den *= b[p] // gcd(b[p], v[p])
        v = eliminate(v, b, p)
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
