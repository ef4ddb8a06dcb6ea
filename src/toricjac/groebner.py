"""Buchberger engine for polynomials in two variables over the integers.

It decides whether a chart ideal is the unit ideal, and returns no
Groebner basis: the loop stops at the first constant.  Monomials are
pairs (i, j) ordered by graded lex with x > y; polynomials are dicts from
monomials to integers, kept content-free with a positive leading
coefficient.  Both classical pair criteria are applied.  Lead terms are
found once per element: reduction looks its reducers' leads up in a list
made once per call, and the basis keeps the lead of every element it
adds.  Pending pairs wait in a heap, smallest lcm of their leads first.
"""

from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm


def _key(m):
    return (m[0] + m[1], m[0])


def _lt(f):
    m = max(f, key=_key)
    return m, f[m]


def _content_normalize(f):
    if not f:
        return {}
    g = 0
    for c in f.values():
        g = gcd(g, abs(c))
    _, lc = _lt(f)
    if lc < 0:
        g = -g
    return {m: c // g for m, c in f.items()}


def _divides(a, b):
    return a[0] <= b[0] and a[1] <= b[1]


def _lcm_mono(a, b):
    return (max(a[0], b[0]), max(a[1], b[1]))


def _shift_mul(f, mono, c):
    return {(m[0] + mono[0], m[1] + mono[1]): c * v for m, v in f.items()}


def _add(f, g):
    out = dict(f)
    for m, c in g.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def to_int_poly(terms):
    """Clear denominators of a {mono: Fraction} dict; scaling keeps the ideal."""
    if not terms:
        return {}
    denom = 1
    for c in terms.values():
        c = Fraction(c)
        denom = denom * c.denominator // gcd(denom, c.denominator)
    out = {}
    for m, c in terms.items():
        c = Fraction(c) * denom
        if c:
            out[tuple(m)] = int(c)
    return _content_normalize(out)


def reduce_poly(f, gens):
    """Normal form of f modulo gens, up to a positive rational factor.

    Integer pseudo-reduction: when a lead term is cancelled both the work
    polynomial and the accumulated remainder are scaled by the same
    multiplier, then the pair is stripped of common content.  The pair
    stays a positive multiple of the one reduction over the rationals
    gives, so how often content is stripped does not change the result;
    after a multiplier of 1 it is not looked for.
    """
    leads = [(g,) + _lt(g) for g in gens]
    rem = {}
    p = dict(f)
    while p:
        lm, lc = _lt(p)
        for g, gm, gc in leads:
            if _divides(gm, lm):
                break
        else:
            rem[lm] = lc
            del p[lm]
            continue
        l = lcm(lc, gc)
        a = l // abs(lc)
        b = l // gc if lc > 0 else -(l // gc)  # a * lc == b * gc
        if a != 1:
            p = {m: a * c for m, c in p.items()}
            rem = {m: a * c for m, c in rem.items()}
        dx, dy = lm[0] - gm[0], lm[1] - gm[1]
        for m, c in g.items():
            m = (m[0] + dx, m[1] + dy)
            s = p.get(m, 0) - b * c
            if s:
                p[m] = s
            else:
                del p[m]
        if a != 1:
            cont = 0
            for c in (*p.values(), *rem.values()):
                cont = gcd(cont, c)
                if cont == 1:
                    break
            if cont > 1:
                p = {m: c // cont for m, c in p.items()}
                rem = {m: c // cont for m, c in rem.items()}
    return _content_normalize(rem)


def s_polynomial(f, g):
    fm, fc = _lt(f)
    gm, gc = _lt(g)
    lm = _lcm_mono(fm, gm)
    l = abs(fc * gc) // gcd(abs(fc), abs(gc))
    a = (l // fc if fc > 0 else -(l // -fc))
    b = (l // gc if gc > 0 else -(l // -gc))
    s = _add(_shift_mul(f, (lm[0] - fm[0], lm[1] - fm[1]), a),
             _shift_mul(g, (lm[0] - gm[0], lm[1] - gm[1]), -b))
    return _content_normalize(s)


def is_unit_ideal(polys):
    """Whether the given polynomials generate the whole ring.

    Buchberger's algorithm, stopped as soon as an input or a new remainder
    is a nonzero constant: a unit ideal has a constant in every Groebner
    basis, and the basis only grows, so one appears exactly when the
    ideal is the unit ideal.  An empty pair queue means it is not.
    """
    G = []
    for f in polys:
        f = to_int_poly(f)
        if f:
            if _lt(f)[0] == (0, 0):
                return True
            G.append(f)
    lead = [_lt(g)[0] for g in G]
    pending = set()
    queue = []

    def add_pairs(i):
        for j in range(i):
            pending.add((i, j))
            heappush(queue, (_key(_lcm_mono(lead[i], lead[j])), (i, j)))

    for i in range(len(G)):
        add_pairs(i)
    while queue:
        _, (i, j) = heappop(queue)
        pending.discard((i, j))
        li, lj = lead[i], lead[j]
        top = _lcm_mono(li, lj)
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
        r = reduce_poly(s_polynomial(G[i], G[j]), G)
        if not r:
            continue
        G.append(r)
        lead.append(_lt(r)[0])
        if lead[-1] == (0, 0):
            return True
        add_pairs(len(G) - 1)
    return False
