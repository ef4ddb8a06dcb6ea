"""The chart nondegeneracy decision against a copy of its first version.

The reference below is the Buchberger engine as it stood before its lead
terms were cached and its pairs queued on a heap, and the decision that
ran it on the whole ideal of every chart.  The library stops
Buchberger's algorithm at the first constant.  Modulo a prime P it first
checks one boundary ideal, in one variable, of every chart, then decides
the torus on the singular ideal (F, F_x, F_y) of f on the least-degree
chart.  When some check is not the unit ideal mod P it falls back to the
integers: the Euler terms on the first chart whole, then the boundary
ideal of every later chart.  A whole chart always has its coordinates
ordered by degree.  Both must give the same status and the same witness
at every P, and the engine the same unit-ideal verdicts.  The
reference's reduced bases also serve as the Groebner bases of
tests/test_groebner.py.
"""

import itertools
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from conftest import DP7_RAYS, euler_terms, lambda_section, random_smooth_fan
from toricjac import jacobian, linalg
from toricjac.cox import CoxPolynomial, monomial_basis, poly_from_text
from toricjac.divisors import TorusDivisor
from toricjac.fan import builtin_surface, fan_from_json
from toricjac.groebner import is_unit_ideal, to_int_poly
from toricjac.jacobian import JacobianSystem

ROOT = Path(__file__).resolve().parents[1]


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


def ref_to_int_poly(terms):
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


def ref_reduce_poly(f, gens):
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


def ref_s_polynomial(f, g):
    fm, fc = _lt(f)
    gm, gc = _lt(g)
    lm = _lcm_mono(fm, gm)
    l = abs(fc * gc) // gcd(abs(fc), abs(gc))
    a = (l // fc if fc > 0 else -(l // -fc))
    b = (l // gc if gc > 0 else -(l // -gc))
    s = _add(_shift_mul(f, (lm[0] - fm[0], lm[1] - fm[1]), a),
             _shift_mul(g, (lm[0] - gm[0], lm[1] - gm[1]), -b))
    return _content_normalize(s)


def ref_groebner_basis(polys):
    """Reduced Groebner basis (graded lex, x > y), each element primitive."""
    G = []
    for f in polys:
        f = ref_to_int_poly(f)
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
        r = ref_reduce_poly(ref_s_polynomial(G[i], G[j]), G)
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
        r = ref_reduce_poly(g, others) if others else _content_normalize(g)
        if r:
            reduced.append(r)
    reduced.sort(key=lambda g: _key(_lt(g)[0]))
    return reduced


def ref_is_unit_ideal(polys):
    """Whether the given polynomials generate the whole ring."""
    for f in polys:
        f = ref_to_int_poly(f)
        if f and _lt(f)[0] == (0, 0):
            return True
    gb = ref_groebner_basis(polys)
    return len(gb) == 1 and _lt(gb[0])[0] == (0, 0)


def ref_charts(sys_):
    """The Euler terms restricted to the whole chart of each maximal cone."""
    fan = sys_.fan
    terms = euler_terms(sys_)
    for i, j in fan.maximal_cones:
        charts = []
        for g in terms:
            chart = {}
            for e, coeff in g.terms.items():
                m = (e[i], e[j])
                s = chart.get(m, 0) + coeff
                if s:
                    chart[m] = s
                else:
                    chart.pop(m, None)
            if chart:
                charts.append(chart)
        yield charts


def ref_decide(sys_):
    """(status, witness) of the whole-chart decision on every chart."""
    fan = sys_.fan
    for c, charts in enumerate(ref_charts(sys_)):
        if not charts or not ref_is_unit_ideal(charts):
            i, j = fan.maximal_cones[c]
            return "degenerate", f"chart {c}: cone ({fan.labels[i]}, {fan.labels[j]})"
    return "nondegenerate", None


def decide(sys_):
    verdict = sys_.nondegenerate_decide()
    return verdict.status, verdict.witness


def surfaces():
    return [builtin_surface("p2"), builtin_surface("p1xp1"),
            builtin_surface("hirzebruch:1"), builtin_surface("hirzebruch:2"),
            fan_from_json({"rays": DP7_RAYS})]


# (surface, divisor) of the dense sections
DENSE = ((builtin_surface("p2"), (3, 0, 0)),
         (builtin_surface("p1xp1"), (3, 3, 0, 0)),
         (builtin_surface("hirzebruch:1"), (4, 2, 0, 0)),
         (fan_from_json({"rays": DP7_RAYS}), (2, 2, 2, 0, 0)))


def lambda_systems():
    fan = builtin_surface("p1xp1")
    return [JacobianSystem(fan, lambda_section(fan, lam)) for lam in range(-6, 7)]


def sparse_systems(seed=2024, count=250, zero_mod_3=False):
    """Seeded sections of one to four monomials, coefficients +-1..3.

    With zero_mod_3 every monomial has exponent 0 or 3 in one variable,
    and some has 3, so that variable's Euler term is nonzero and
    divisible by 3.
    """
    rng = random.Random(seed)
    done = 0
    while done < count:
        fan = rng.choice(surfaces())
        top = 3 if zero_mod_3 else 2
        D = TorusDivisor(tuple(rng.randint(0, top) for _ in range(fan.n)))
        basis = monomial_basis(fan, D)
        if zero_mod_3:
            rho = rng.randrange(fan.n)
            basis = [e for e in basis if e[rho] in (0, 3)]
        if not basis:
            continue
        picks = rng.sample(basis, min(len(basis), rng.randint(1, 4)))
        if zero_mod_3 and not any(e[rho] for e in picks):
            continue
        f = CoxPolynomial(fan, {e: rng.choice((-3, -2, -1, 1, 2, 3)) for e in picks})
        yield JacobianSystem(fan, f)
        done += 1


def boundary_systems(cases=DENSE, seed=11):
    """(system, expected witness, place of rho in the witness cone).

    A dense section whose restriction to the curve x_rho = 0 has a double
    root away from the torus-fixed points is singular there and, for the
    classes of DENSE, nowhere else: the witness is the first chart that
    contains the curve, with rho as either of its two coordinates.
    """
    rng = random.Random(seed)
    coeffs = [k for k in range(-9, 10) if k]
    for fan, D in cases:
        basis = monomial_basis(fan, TorusDivisor(D))
        for rho in range(fan.n):
            edge = sorted(e for e in basis if not e[rho])
            if len(edge) < 3:
                continue
            q = [rng.choice(coeffs) for _ in range(len(edge) - 2)]
            on_edge = [0] * len(edge)      # (t - 1)^2 * q(t), along the edge
            for k, c in enumerate(q):
                for d, b in enumerate((1, -2, 1)):
                    on_edge[k + d] += b * c
            terms = {e: rng.choice(coeffs) for e in basis}
            terms.update(zip(edge, on_edge))
            sys_ = JacobianSystem(fan, CoxPolynomial(fan, terms))
            c = min(k for k, cone in enumerate(fan.maximal_cones) if rho in cone)
            i, j = fan.maximal_cones[c]
            want = ("degenerate", f"chart {c}: cone ({fan.labels[i]}, {fan.labels[j]})")
            yield sys_, want, fan.maximal_cones[c].index(rho)


def start_chart(sys_):
    """(c, swapped): the first chart on which f has the least total degree,
    and whether its first coordinate has the larger exponent in f."""
    cones = sys_.fan.maximal_cones
    degrees = [max(e[i] + e[j] for e in sys_.f.terms) for i, j in cones]
    c = degrees.index(min(degrees))
    i, j = cones[c]
    return c, max(e[i] for e in sys_.f.terms) > max(e[j] for e in sys_.f.terms)


def moved_start_cases():
    """Trapezoid classes on Hirzebruch surfaces, on which f has least degree
    on chart 2 and its larger exponent on x3, and the anticanonical classes
    of random smooth fans."""
    cases = [(builtin_surface(f"hirzebruch:{r}"), (a, 1, 0, 0))
             for r, a in ((1, 3), (2, 3), (2, 4), (3, 4))]
    rng = random.Random(5)
    for _ in range(12):
        fan = random_smooth_fan(rng, rng.randint(1, 2))
        cases.append((fan, (1,) * fan.n))
    return cases


def nodal_systems():
    """f = (a*x1 - b*x3) * (c*x2 - d*x4) on p1xp1, with a node on the torus.

    When p divides one of a, b, c, d the node reduces mod p to a point on
    the boundary, and there the restrictions of the Euler terms to an
    axis all have a content divisible by p.
    """
    fan = builtin_surface("p1xp1")
    x = {lab: tuple(int(k == fan.position(lab)) for k in range(fan.n))
         for lab in fan.labels}
    for a, b, c, d in itertools.product((1, 2, 3), (1, -2, 3), (1, 2, 3), (1, -2, 3)):
        terms = {tuple(p + q for p, q in zip(u, v)): cu * cv
                 for u, cu in ((x["x1"], a), (x["x3"], -b))
                 for v, cv in ((x["x2"], c), (x["x4"], -d))}
        yield JacobianSystem(fan, CoxPolynomial(fan, terms))


def exact_entries(monkeypatch):
    """The polynomial lists the decision hands to the exact loop, in order."""
    entries = []
    real = jacobian.is_unit_ideal

    def counted(polys, p=None):
        if p is None:
            entries.append(polys)
        return real(polys, p)

    monkeypatch.setattr(jacobian, "is_unit_ideal", counted)
    return entries


def test_lambda_family_matches_reference():
    for lam, sys_ in zip(range(-6, 7), lambda_systems()):
        assert decide(sys_) == ref_decide(sys_), lam


def test_random_sparse_sections_match_reference():
    witnessed = set()
    nondegenerate = 0
    for sys_ in sparse_systems():
        got = decide(sys_)
        assert got == ref_decide(sys_), (sys_.fan.rays, sys_.f.to_text())
        if got[1]:
            witnessed.add(int(got[1].split(":")[0].split()[1]))
        else:
            nondegenerate += 1
    # witnesses at every chart position: degeneracies that only a later
    # chart's boundary check can find
    assert witnessed == {0, 1, 2, 3, 4} and nondegenerate


def test_dense_sections_match_reference():
    rng = random.Random(7)
    coeffs = [k for k in range(-9, 10) if k]
    for fan, D in DENSE:
        basis = monomial_basis(fan, TorusDivisor(D))
        f = CoxPolynomial(fan, {e: rng.choice(coeffs) for e in basis})
        sys_ = JacobianSystem(fan, f)
        assert decide(sys_) == ref_decide(sys_) == ("nondegenerate", None)


def test_boundary_singularities_match_reference():
    seen = set()
    for sys_, want, place in boundary_systems():
        assert decide(sys_) == ref_decide(sys_) == want, sys_.fan.rays
        seen.add(place)
    assert seen == {0, 1}


def test_moved_start_chart_matches_reference(monkeypatch):
    # Boundary singularities on sections whose modular pass starts away
    # from chart 0, mostly with its coordinates swapped: the witness must
    # not depend on the start chart, nor on the prime.  The random fans'
    # anticanonical sections may be singular elsewhere too, so the
    # reference, not the planted curve, gives the witness.
    systems = [(sys_, ref_decide(sys_))
               for sys_, _, _ in boundary_systems(moved_start_cases(), 3)]
    moved = [ref for sys_, ref in systems if start_chart(sys_) != (0, False)]
    assert all(ref[0] == "degenerate" for _, ref in systems)
    assert sum(start_chart(sys_)[0] and start_chart(sys_)[1] for sys_, _ in systems) >= 20
    assert {witness.split(":")[0] for _, witness in moved} >= {f"chart {c}" for c in range(4)}
    for prime in (2, 3, 5, linalg.P):
        monkeypatch.setattr(jacobian, "P", prime)
        for sys_, ref in systems:
            assert decide(sys_) == ref, (prime, sys_.fan.rays, sys_.f.to_text())


def singular_ideal(sys_, c, swap):
    """[F, F_x, F_y] of an f with integer coefficients on the whole chart
    c, its coordinates exchanged when swap."""
    i, j = sys_.fan.maximal_cones[c]
    if swap:
        i, j = j, i
    F = {(e[i], e[j]): int(x) for e, x in sys_.f.terms.items()}
    return [F, {(a - 1, b): a * x for (a, b), x in F.items() if a},
            {(a, b - 1): b * x for (a, b), x in F.items() if b}]


def modular_runs(monkeypatch):
    """(ideal, bivariate, unit) of each check the decision runs mod a
    prime, in order."""
    runs = []
    real = jacobian.is_unit_ideal

    def spy(polys, p=None):
        unit = real(polys, p)
        if p is not None:
            runs.append((polys, any(b for g in polys for _, b in g), unit))
        return unit

    monkeypatch.setattr(jacobian, "is_unit_ideal", spy)
    return runs


def test_modular_pass_runs_buchberger_on_the_cheapest_oriented_chart(monkeypatch):
    # The one bivariate ideal of the modular pass, the singular ideal
    # [F, F_x, F_y] of f: on chart 2 with its coordinates swapped on the
    # generic hirzebruch:1 (7,3) section, where f has degree 7 against 10
    # on charts 0 and 1 and exponents up to 7 in x3 against 3 in x4; on
    # chart 0 as it is on p1xp1 (4,4), where every chart and coordinate
    # ties.  Every other check is an axis, in one variable.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    runs = modular_runs(monkeypatch)
    ops = dict((argv[2], argv[6]) for _, argv in
               workloads.generic_ops("criterion", workloads.CRITERION_SECTIONS, 1, False))
    for surface, chart, swap in (("hirzebruch:1", 2, True), ("p1xp1", 0, False)):
        fan = builtin_surface(surface)
        sys_ = JacobianSystem(fan, poly_from_text(fan, ops[surface]))
        del runs[:]
        assert decide(sys_) == ("nondegenerate", None)
        want = singular_ideal(sys_, chart, swap)
        seen = [polys for polys, bivariate, _ in runs if bivariate]
        assert len(seen) == 1, surface
        assert [to_int_poly(g) for g in seen[0]] == [to_int_poly(g) for g in want], surface


# p1xp1 (3,3), whose start chart is chart 0, and hirzebruch:1 (4,2), chart 2 swapped
START_CASES = DENSE[1:3]


def torus_node_systems(cases=START_CASES, seed=5):
    """Dense sections with a node at the point (1, ..., 1) of the torus.

    On chart 0, (x, y) = (x_i, x_j), three coefficients of a dense section
    are moved so that F(1, 1) = F_x(1, 1) = F_y(1, 1) = 0: those of 1, x
    and y, which an ample class has at the cone's vertex.
    """
    rng = random.Random(seed)
    coeffs = [k for k in range(-9, 10) if k]
    for fan, D in cases:
        i, j = fan.maximal_cones[0]
        terms = {e: rng.choice(coeffs) for e in monomial_basis(fan, TorusDivisor(D))}
        at = {(e[i], e[j]): e for e in terms}
        value = sum(terms.values())
        dx = sum(e[i] * c for e, c in terms.items())
        dy = sum(e[j] * c for e, c in terms.items())
        terms[at[1, 0]] -= dx
        terms[at[0, 1]] -= dy
        terms[at[0, 0]] -= value - dx - dy
        yield JacobianSystem(fan, CoxPolynomial(fan, terms))


@pytest.mark.parametrize("prime", [linalg.P, 2, 3])
def test_start_chart_axes_and_torus_node_match_reference(monkeypatch, prime):
    # The modular pass decides the torus on the singular ideal of the start
    # chart and the boundary on the axes of all charts, the start chart's
    # included.  A boundary section whose double root lies on an axis of
    # the start chart is tangent to the boundary there but smooth: its
    # singular ideal is the unit ideal, and only an axis check finds it;
    # on the axis x_j = 0 of the start chart only the start chart's own
    # check does.  A node in the torus only the singular ideal finds.
    boundary, axes = [], set()
    for sys_, want, place in boundary_systems(START_CASES):
        c, swap = start_chart(sys_)
        cone = sys_.fan.maximal_cones[c]
        rho = sys_.fan.maximal_cones[int(want[1].split(":")[0].split()[1])][place]
        if rho in cone:
            axes.add((sys_.fan.rays, cone.index(rho)))
            assert is_unit_ideal(singular_ideal(sys_, c, swap), linalg.P)
            boundary.append((sys_, want))
    assert len(axes) == 4  # both axes of the start chart, on both surfaces
    nodes = list(torus_node_systems()) + list(itertools.islice(nodal_systems(), 0, None, 9))
    nodes = [(sys_, ref_decide(sys_)) for sys_ in nodes]
    assert all(ref[0] == "degenerate" for _, ref in nodes)
    runs = modular_runs(monkeypatch)
    monkeypatch.setattr(jacobian, "P", prime)
    for sys_, want in boundary:
        del runs[:]
        assert decide(sys_) == ref_decide(sys_) == want, (prime, sys_.f.to_text())
        if prime == linalg.P:  # an axis fails, and the singular ideal never runs
            assert not runs[-1][2] and not any(bivariate for _, bivariate, _ in runs)
    for sys_, ref in nodes:
        del runs[:]
        assert decide(sys_) == ref, (prime, sys_.f.to_text())
        if prime == linalg.P:  # every axis is the unit ideal, the singular ideal not
            assert [run[1:] for run in runs] == [(False, True)] * (len(runs) - 1) + [(True, False)]


@pytest.mark.parametrize("prime", [2, 3])
def test_exact_fallback_matches_reference(monkeypatch, prime):
    # A prime this small leaves many nondegenerate sections short of the
    # unit ideal mod p, so the decision falls back to the exact loop.
    monkeypatch.setattr(jacobian, "P", prime)
    entries = exact_entries(monkeypatch)
    for sys_ in lambda_systems() + list(sparse_systems()):
        assert decide(sys_) == ref_decide(sys_), (sys_.fan.rays, sys_.f.to_text())
    for sys_, want, _ in boundary_systems():
        assert decide(sys_) == ref_decide(sys_) == want, sys_.fan.rays
    assert entries


def test_modular_nondegenerate_is_exactly_nondegenerate(monkeypatch):
    # The good-reduction lemma: a section whose charts are all the unit
    # ideal mod p, decided without entering the exact loop, is
    # nondegenerate over Q.  In the sections with an Euler term divisible
    # by 3 that term vanishes mod 3 on every chart.  The nodal sections are
    # degenerate; dividing each restriction by its content before reading
    # it mod 2 or 3 makes about half of them nondegenerate.
    systems = (list(sparse_systems()) + list(sparse_systems(3, 150, zero_mod_3=True))
               + list(nodal_systems()))
    refs = [ref_decide(sys_) for sys_ in systems]
    for prime in (2, 3, 5, 7, 2**31 - 1):
        monkeypatch.setattr(jacobian, "P", prime)
        entries = exact_entries(monkeypatch)
        by_lemma = 0
        for sys_, ref in zip(systems, refs):
            before = len(entries)
            assert decide(sys_) == ref, (prime, sys_.f.to_text())
            by_lemma += len(entries) == before
        assert by_lemma, prime
        monkeypatch.undo()


def test_modular_unit_chart_alone_decides_nothing(monkeypatch):
    # One chart can be the unit ideal mod p and not over Q.  Here chart 0
    # is the unit ideal mod 3, yet its Euler terms have a common zero over
    # Q-bar; the axis of chart 2 is not the unit ideal, mod 3 or exactly.
    # A decision that trusted chart 0 mod 3 and fell back to the exact
    # loop on chart 2 alone would name chart 2; the witness is chart 0.
    fan = fan_from_json({"rays": [[1, 0], [0, 1], [-1, 1], [0, -1]]})
    f = poly_from_text(fan, "3*x2^2*x3^4 + 3*x1*x2^2*x3^3 + x3^2*x4^2 - x1^2*x4^2")
    sys_ = JacobianSystem(fan, f)
    chart0 = next(ref_charts(sys_))
    assert is_unit_ideal([{m: int(c) for m, c in g.items()} for g in chart0], 3)
    assert not is_unit_ideal(chart0)
    monkeypatch.setattr(jacobian, "P", 3)
    assert decide(sys_) == ref_decide(sys_) == ("degenerate", "chart 0: cone (x1, x2)")


def test_exact_loop_entered_only_on_the_witness_chart(monkeypatch):
    entries = exact_entries(monkeypatch)
    for sys_ in lambda_systems():
        del entries[:]
        status, witness = decide(sys_)
        if status == "nondegenerate":
            assert not entries
            continue
        assert len(entries) == 1 and witness.startswith("chart 0:")
        assert ([to_int_poly(g) for g in entries[0]]
                == [to_int_poly(g) for g in next(ref_charts(sys_))])


def swapped(chart):
    """A chart ideal with its two coordinates exchanged."""
    return [{(b, a): x for (a, b), x in g.items()} for g in chart]


def test_exact_loop_orients_chart_0_by_degree(monkeypatch):
    # The four boundary sections of hirzebruch:1 (10,4), where f has
    # exponents up to 10 in x3 against 4 in x2: the exact loop decides
    # chart 0 whole with x3 last, as the modular pass orders its whole
    # chart.  In chart 0's own order the loop took 10-17 s a section.  The
    # reference runs the unoriented Buchberger on every whole chart and is
    # far too slow here, so the planted curve gives the witness.
    entries = exact_entries(monkeypatch)
    witnesses = []
    for sys_, want, _ in boundary_systems([(builtin_surface("hirzebruch:1"), (10, 4, 0, 0))]):
        del entries[:]
        assert decide(sys_) == want
        witnesses.append(want[1].split(":")[0])
        if want[1].startswith("chart 0:"):
            assert len(entries) == 1
            assert ([to_int_poly(g) for g in entries[0]]
                    == [to_int_poly(g) for g in swapped(next(ref_charts(sys_)))])
    assert witnesses == ["chart 0", "chart 0", "chart 1", "chart 2"]


def test_generic_sections_never_enter_the_exact_loop(monkeypatch):
    # The benchmark's generic sections of seeds 1 and 5 and the dense
    # p1xp1 (6,6) and hirzebruch:1 (24,6) sections are decided mod P
    # alone; the exact loop would take about 20 s on the (6,6) one, and
    # the modular one about 3 s on chart 0 of the (24,6) one.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    real = jacobian.is_unit_ideal

    def modular_only(polys, p=None):
        assert p is not None, "the exact loop was entered"
        return real(polys, p)

    monkeypatch.setattr(jacobian, "is_unit_ideal", modular_only)
    sections = [("p1xp1", workloads.dense_section_text(0, 6, 6, random.Random("w4:1"))),
                ("hirzebruch:1", workloads.dense_section_text(1, 24, 6, random.Random("w4:1")))]
    for seed in (1, 5):
        for command, classes in (("criterion", workloads.CRITERION_SECTIONS),
                                 ("find-eta", workloads.FIND_ETA_SECTIONS)):
            for _, argv in workloads.generic_ops(command, classes, seed, False):
                sections.append((argv[2], argv[6]))
    for surface, text in sections:
        fan = builtin_surface(surface)
        assert decide(JacobianSystem(fan, poly_from_text(fan, text))) == ("nondegenerate", None)


def random_poly(rng, max_deg=3, nterms=4):
    f = {}
    for _ in range(rng.randint(1, nterms)):
        m = (rng.randint(0, max_deg), rng.randint(0, max_deg))
        f[m] = f.get(m, 0) + Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return {m: c for m, c in f.items() if c}


def test_is_unit_ideal_matches_reference():
    rng = random.Random(99)
    for _ in range(300):
        polys = [random_poly(rng) for _ in range(rng.randint(1, 4))]
        assert is_unit_ideal(polys) == ref_is_unit_ideal(polys), polys
