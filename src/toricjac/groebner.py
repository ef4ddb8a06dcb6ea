"""Buchberger engine for polynomials in two variables over the integers.

Used to decide whether a chart ideal is the unit ideal.  Monomials are
pairs (i, j) ordered by graded lex with x > y; polynomials are dicts from
monomials to integers, kept content-free with a positive leading
coefficient.  Both classical pair criteria are applied.
"""

from fractions import Fraction
from math import gcd


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
    multiplier, then the pair is stripped of common content.
    """
    rem = {}
    p = dict(f)
    while p:
        lm, lc = _lt(p)
        hit = None
        for g in gens:
            gm, gc = _lt(g)
            if _divides(gm, lm):
                hit = (g, gm, gc)
                break
        if hit is None:
            rem[lm] = lc
            del p[lm]
            continue
        g, gm, gc = hit
        l = abs(lc * gc) // gcd(abs(lc), abs(gc))
        a = l // abs(lc)
        sign = 1 if (lc > 0) == (gc > 0) else -1
        b = sign * (l // abs(gc))
        p = _add({m: a * c for m, c in p.items()},
                 _shift_mul(g, (lm[0] - gm[0], lm[1] - gm[1]), -b))
        if rem:
            rem = {m: a * c for m, c in rem.items()}
        cont = 0
        for c in p.values():
            cont = gcd(cont, abs(c))
        for c in rem.values():
            cont = gcd(cont, abs(c))
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


def groebner_basis(polys):
    """Reduced Groebner basis (graded lex, x > y), each element primitive."""
    G = []
    for f in polys:
        f = to_int_poly(f)
        if f:
            G.append(f)
    if not G:
        return []
    lead = [_lt(g)[0] for g in G]
    pending = {(i, j) for i in range(len(G)) for j in range(i)}
    while pending:
        i, j = min(pending,
                   key=lambda p: (_key(_lcm_mono(lead[p[0]], lead[p[1]])), p))
        pending.discard((i, j))
        li, lj = lead[i], lead[j]
        lcm = _lcm_mono(li, lj)
        # product criterion: coprime lead monomials give a trivial pair
        if lcm == (li[0] + lj[0], li[1] + lj[1]):
            continue
        # chain criterion: a third element dividing the lcm whose pairs with
        # both i and j were already treated makes this pair redundant
        skip = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            if _divides(lead[k], lcm):
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
        t = len(G) - 1
        pending.update((t, k) for k in range(t))
        if _lt(r)[0] == (0, 0):
            break
    # minimize: drop elements whose lead is divisible by another lead
    keep = []
    for i, g in enumerate(G):
        li = _lt(g)[0]
        if any(_divides(_lt(G[j])[0], li) for j in range(len(G)) if j != i
               and (_lt(G[j])[0] != li or j < i)):
            continue
        keep.append(g)
    # interreduce tails
    reduced = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1:]
        r = reduce_poly(g, others) if others else _content_normalize(g)
        if r:
            reduced.append(r)
    reduced.sort(key=lambda g: _key(_lt(g)[0]))
    return reduced


def is_unit_ideal(polys):
    """Whether the given polynomials generate the whole ring."""
    for f in polys:
        f = to_int_poly(f)
        if f and _lt(f)[0] == (0, 0):
            return True
    gb = groebner_basis(polys)
    return len(gb) == 1 and _lt(gb[0])[0] == (0, 0)


def ideal_contains(polys, f):
    """Membership of f in the ideal generated by polys (test helper)."""
    gb = groebner_basis(polys)
    if not gb:
        return not to_int_poly(f)
    return not reduce_poly(to_int_poly(f), gb)
