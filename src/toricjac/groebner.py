"""Buchberger engine for polynomials in two variables, over the integers or mod p.

It decides whether a chart ideal is the unit ideal, and returns no
Groebner basis: the loop stops at the first constant.  Callers give
polynomials as dicts from exponent pairs (i, j) to coefficients.  Inside
the module the monomial x^i y^j is the single integer (i + j) * 2**32 + i,
so integer order is graded lex with x > y, max(f) is the lead monomial
of f, multiplying by a monomial adds its code, and divmod by 2**32 gives
back the degree and the x exponent; to_int_poly refuses exponents of
2**32 or more with an InputError.

Every function takes the coefficient arithmetic as a parameter p: with
p None, integers kept content-free with a positive lead by linalg's
integral, eliminate and primitive, the package's one integer arithmetic;
with a prime p, residues mod p with monic leads by linalg's subtract_mod
and primitive, its one modular arithmetic.  One pair loop serves both,
with both classical pair criteria and a heap of pairs, smallest lcm
first.  Each basis element's lead and its exponents are computed once,
when it joins the basis.

A remainder is reduced only until its lead is divisible by no basis
lead; its tail is left as it is.  Buchberger's criterion asks only that
every S-polynomial have a standard representation, and reducing it to
zero this way gives one.  A nonzero remainder joins the basis with a
lead that no earlier lead divides, so the loop ends (Dickson's lemma),
and a constant appears exactly when the ideal is the unit ideal
(Becker-Weispfenning, Groebner Bases, 1993, ch. 5).

The lemma that makes a modular answer exact: let integer polynomials
h_k cut out a closed subscheme Z of a scheme X proper over Spec Z.  The
image of Z in Spec Z is closed, so if Z has a point over Q it has one
over every F_p.  Hence if the h_k mod p give the unit ideal on every
chart of an affine cover of X, they have no common zero over Q-bar
(Hartshorne II.4; Arnold, J. Symbolic Comput. 2003).  One chart alone
proves nothing (p*x - 1 is a unit mod p only).  A chart ideal must be
the restriction of the h_k read mod p, or, for the chart's torus points
only, integer polynomials whose zeros there contain those of the h_k over
every F_p, such as (F, F_x, F_y) when the h_k are F and its Euler
terms; it is never divided by a content that p may divide.  A "not unit" answer mod p is no
evidence either way.
"""

from fractions import Fraction
from heapq import heappop, heappush

from .errors import InputError
from .linalg import eliminate, integral, primitive, subtract_mod

_D = 1 << 32  # the code of x^i y^j is (i + j) * _D + i


def _lead(m):
    """(m, x exponent, y exponent) of the monomial code m."""
    d, x = divmod(m, _D)
    return m, x, d - x


def _lcm_mono(a, b):
    da, xa = divmod(a, _D)
    db, xb = divmod(b, _D)
    x = max(xa, xb)
    return (x + max(da - xa, db - xb)) * _D + x


def _normalize(f, p):
    """f made content-free with a positive lead, or monic mod p."""
    return primitive(f, max(f), p) if f else {}


def to_int_poly(terms, p=None):
    """The module's form of a {(i, j): coefficient} dict.

    With p None the denominators are cleared, which keeps the ideal over
    the rationals, and the result is content-free.  With p the
    coefficients must be integers; they are read mod p, and the result is
    monic.  Zero terms are dropped; exponents of 2**32 or more are refused.
    """
    if any(i >= _D or j >= _D for i, j in terms):
        raise InputError("exponents must stay below 2**32")
    if p:
        out = {(i + j) * _D + i: c % p for (i, j), c in terms.items() if c % p}
    else:
        out = integral(((i + j) * _D + i, Fraction(c)) for (i, j), c in terms.items())[0]
    return _normalize(out, p)


def reduce_poly(f, gens, p=None, leads=None):
    """f reduced modulo gens until its lead is divisible by no lead of gens.

    The result is a unit multiple of f minus a combination of gens,
    normalized as the inputs are.  When gens is a Groebner basis it is
    empty exactly when f lies in their ideal.  leads holds each
    generator's _lead, as is_unit_ideal stores them; without it they are
    computed here.  Over the integers this is pseudo-reduction by linalg's
    step: eliminate scales by a positive multiplier before it cancels the
    lead term, and primitive strips the content, so the result stays a
    positive multiple of what reduction over the rationals gives.  Mod p
    the gens are monic, so linalg's subtract_mod cancels a lead term in
    place, without scaling.
    """
    if leads is None:
        leads = [_lead(max(g)) for g in gens]
    reducers = list(zip(gens, leads))
    f = dict(f)
    while f:
        lm = max(f)
        d, x = divmod(lm, _D)
        y = d - x
        for g, (gm, gx, gy) in reducers:
            if gx <= x and gy <= y:
                break
        else:
            return _normalize(f, p)
        shift = lm - gm
        if p:
            subtract_mod(f, g, f[lm], p, shift)
        else:
            f = _normalize(eliminate(f, {m + shift: c for m, c in g.items()}, lm), p)
    return {}


def s_polynomial(f, g, p=None):
    """The S-polynomial of f and g, content-free over the integers.

    Mod p the leads are monic and the result is left as it comes:
    reduce_poly makes its remainder monic.
    """
    fm, gm = max(f), max(g)
    top = _lcm_mono(fm, gm)
    df, dg = top - fm, top - gm
    s = {m + df: c for m, c in f.items()}
    if p:
        subtract_mod(s, g, 1, p, dg)
        return s
    return _normalize(eliminate(s, {m + dg: c for m, c in g.items()}, top), p)


def is_unit_ideal(polys, p=None):
    """Whether the given {(i, j): coefficient} polynomials generate the whole ring.

    The ring is Q[x, y] with p None, and F_p[x, y] for a prime p, which
    then reads the integer coefficients mod p.  Buchberger's algorithm,
    stopped as soon as an input or a new remainder is a nonzero constant:
    a unit ideal has a constant in every Groebner basis, and the basis
    only grows, so one appears exactly when the ideal is the unit ideal.
    An empty pair queue means it is not.
    """
    G = []
    leads = []
    queue = []
    done = set()  # popped pairs; each pair is pushed when its later member joins

    def add(g):
        lead = _lead(max(g))
        _, x, y = lead
        i = len(G)
        for j, (_, xj, yj) in enumerate(leads):
            lx = max(x, xj)
            top = (lx + max(y, yj)) * _D + lx
            heappush(queue, (top, i, j))
        G.append(g)
        leads.append(lead)

    for f in polys:
        f = to_int_poly(f, p)
        if f:
            if max(f) == 0:
                return True
            add(f)
    while queue:
        top, i, j = heappop(queue)
        done.add((i, j))
        # product criterion: coprime lead monomials give a trivial pair
        if top == leads[i][0] + leads[j][0]:
            continue
        # chain criterion: a third element dividing the lcm whose pairs with
        # both i and j were already popped makes this pair redundant
        d, x = divmod(top, _D)
        y = d - x
        for k, (_, kx, ky) in enumerate(leads):
            if (kx <= x and ky <= y and k != i and k != j
                    and (max(i, k), min(i, k)) in done
                    and (max(j, k), min(j, k)) in done):
                break
        else:
            r = reduce_poly(s_polynomial(G[i], G[j], p), G, p, leads)
            if r:
                if max(r) == 0:
                    return True
                add(r)
    return False
