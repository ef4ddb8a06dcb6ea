"""Buchberger engine for polynomials in two variables, over the integers or mod p.

It decides whether a chart ideal is the unit ideal, and returns no
Groebner basis: the loop stops at the first constant.  Callers give
polynomials as dicts from exponent pairs (i, j) to coefficients.  Inside
the module the monomial x^i y^j is stored as (i + j, i), so plain tuple
order is graded lex with x > y and max(f) is the lead monomial of f.

Every function takes the coefficient arithmetic as a parameter p: with
p None, integers kept content-free with a positive lead; with a prime p,
residues mod p with monic leads.  One pair loop serves both, with both
classical pair criteria and a heap of pending pairs, smallest lcm first.

The lemma that makes a modular answer exact: let integer polynomials
h_k cut out a closed subscheme Z of a scheme X proper over Spec Z.  The
image of Z in Spec Z is closed, so if Z has a point over Q it has one
over every F_p.  Hence if the h_k mod p give the unit ideal on every
chart of an affine cover of X, they have no common zero over Q-bar
(Hartshorne II.4; Arnold, J. Symbolic Comput. 2003).  One chart alone
proves nothing (p*x - 1 is a unit mod p only), and a chart ideal must be
the restriction of the h_k read mod p, never divided by a content that p
may divide.  A "not unit" answer mod p is no evidence either way.
"""

from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm


def _divides(a, b):
    return a[1] <= b[1] and a[0] - a[1] <= b[0] - b[1]


def _lcm_mono(a, b):
    i = max(a[1], b[1])
    return (i + max(a[0] - a[1], b[0] - b[1]), i)


def _normalize(f, p):
    """f made content-free with a positive lead, or monic mod p."""
    if not f:
        return {}
    lc = f[max(f)]
    if p:
        if lc == 1:
            return f
        inv = pow(lc, -1, p)
        return {m: c * inv % p for m, c in f.items()}
    g = 0
    for c in f.values():
        g = gcd(g, c)
    if lc < 0:
        g = -g
    return {m: c // g for m, c in f.items()}


def to_int_poly(terms, p=None):
    """The module's form of a {(i, j): coefficient} dict.

    With p None the denominators are cleared, which keeps the ideal over
    the rationals, and the result is content-free.  With p the
    coefficients must be integers; they are read mod p, and the result is
    monic.  Zero terms are dropped.
    """
    if p:
        out = {(i + j, i): c % p for (i, j), c in terms.items() if c % p}
    else:
        denom = lcm(*(Fraction(c).denominator for c in terms.values()))
        out = {(i + j, i): int(Fraction(c) * denom)
               for (i, j), c in terms.items() if c}
    return _normalize(out, p)


def reduce_poly(f, gens, p=None):
    """Normal form of f modulo gens, up to a unit factor.

    Over the integers this is pseudo-reduction: when a lead term is
    cancelled both the work polynomial and the accumulated remainder are
    scaled by the same multiplier, then the pair is stripped of common
    content.  The pair stays a positive multiple of the one reduction over
    the rationals gives, so how often content is stripped does not change
    the result; after a multiplier of 1 it is not looked for.  Mod p the
    gens are monic, so a lead term is cancelled without scaling.
    """
    # each reducer with its lead monomial and the lead's x and y exponents
    leads = [(g, gm, gm[1], gm[0] - gm[1]) for g in gens for gm in (max(g),)]
    rem = {}
    f = dict(f)
    while f:
        lm = max(f)
        lc = f[lm]
        x, y = lm[1], lm[0] - lm[1]
        for g, gm, gx, gy in leads:
            if gx <= x and gy <= y:
                break
        else:
            rem[lm] = f.pop(lm)
            continue
        a, b = 1, lc
        if not p:
            l = lcm(lc, g[gm])
            a = l // abs(lc)
            b = l // g[gm] if lc > 0 else -(l // g[gm])  # a * lc == b * g[gm]
            if a != 1:
                f = {m: a * c for m, c in f.items()}
                rem = {m: a * c for m, c in rem.items()}
        dd, di = lm[0] - gm[0], lm[1] - gm[1]
        for m, c in g.items():
            m = (m[0] + dd, m[1] + di)
            s = f.get(m, 0) - b * c
            if p:
                s %= p
            if s:
                f[m] = s
            else:
                del f[m]
        if a != 1:
            cont = 0
            for c in (*f.values(), *rem.values()):
                cont = gcd(cont, c)
                if cont == 1:
                    break
            if cont > 1:
                f = {m: c // cont for m, c in f.items()}
                rem = {m: c // cont for m, c in rem.items()}
    return _normalize(rem, p)


def s_polynomial(f, g, p=None):
    fm, gm = max(f), max(g)
    top = _lcm_mono(fm, gm)
    if p:
        a, b = g[gm], f[fm]
    else:
        l = lcm(f[fm], g[gm])
        a, b = l // f[fm], l // g[gm]
    df, dif = top[0] - fm[0], top[1] - fm[1]
    s = {(m[0] + df, m[1] + dif): a * c % p if p else a * c for m, c in f.items()}
    dg, dig = top[0] - gm[0], top[1] - gm[1]
    for m, c in g.items():
        m = (m[0] + dg, m[1] + dig)
        v = s.get(m, 0) - b * c
        if p:
            v %= p
        if v:
            s[m] = v
        else:
            del s[m]
    return _normalize(s, p)


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
    for f in polys:
        f = to_int_poly(f, p)
        if f:
            if max(f) == (0, 0):
                return True
            G.append(f)
    lead = [max(g) for g in G]
    pending = set()
    queue = []

    def add_pairs(i):
        for j in range(i):
            pending.add((i, j))
            heappush(queue, (_lcm_mono(lead[i], lead[j]), (i, j)))

    for i in range(len(G)):
        add_pairs(i)
    while queue:
        top, (i, j) = heappop(queue)
        pending.discard((i, j))
        li, lj = lead[i], lead[j]
        # product criterion: coprime lead monomials give a trivial pair
        if top == (li[0] + lj[0], li[1] + lj[1]):
            continue
        # chain criterion: a third element dividing the lcm whose pairs with
        # both i and j were already treated makes this pair redundant
        skip = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            if _divides(lead[k], top):
                pik = (max(i, k), min(i, k))
                pjk = (max(j, k), min(j, k))
                if pik not in pending and pjk not in pending:
                    skip = True
                    break
        if skip:
            continue
        r = reduce_poly(s_polynomial(G[i], G[j], p), G, p)
        if not r:
            continue
        G.append(r)
        lead.append(max(r))
        if lead[-1] == (0, 0):
            return True
        add_pairs(len(G) - 1)
    return False
