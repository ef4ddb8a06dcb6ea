"""Graded pieces of toric Jacobian ideals and multiplication maps on quotients.

For a homogeneous f the Euler terms are g_rho = x_rho df/dx_rho.  They
generate J0; the criterion and the rank-g search read the quotient by
J1 = J0 : (prod x_rho).  The last cone's rays s = u_{n-2}, t = u_{n-1}
have det(s, t) = 1, so the relations e_k - a_k e_s - b_k e_t (k < n - 2,
a_k = det(u_k, t), b_k = det(s, u_k)) are a basis of those among the rays,
and their Euler identities read g_k - a_k g_s - b_k g_t = c_k f with
c_k = beta_k - a_k beta_s - b_k beta_t.  So g_s, g_t and g_j, j the latest
k with c_k != 0, span every g_k.  With f's denominators cleared once, the
identities are checked as integer term dicts, and the products m * g are
sparse integer rows written straight from the terms of g.

Not every product is written.  Let lm(g) be the lex-largest exponent
tuple of g; tuple order is a monomial order.  The row m * g_i is dropped
when lm(g_j) divides m for an earlier spanning term g_j, j < i (the
syzygy criterion of F5 for principal syzygies, Faugere, ISSAC 2002).
With m = t * lm(g_j) and c the coefficient of g_j there,

    c * m * g_i = (t * g_i) * g_j - t * (g_j - c * x^lm(g_j)) * g_i,

the syzygy t * (g_j e_i - g_i e_j): rows of the earlier g_j, and rows of
g_i at monomials below m.  Its largest signature in position-over-term
order is m e_i, so by induction on the signature the kept rows span what
all products span, and every piece, which depends only on that span, is
unchanged.  Mod P a dropped row can leave the span only when P divides
c; then the rank test fails and the exact route decides.

Both ideals are read through one helper, JacobianSystem._unproved(D, T,
shift): J0 at class(T) in the coordinates of S_D, through multiplication
by x^shift, x = prod x_rho.  J0 at D is the piece (D, D, 0).  Multiplication
by x maps S_D injectively onto the span C of the monomials of class
D - K that every variable divides, so x * J1_D = J0_{D-K} ∩ C, and J1 at
D is the piece (D, D - K, 1).  When J0 is all of S_T, the piece is all
of S_D.  The helper tries, in this order:

- closure, which needs no row: if T0 and T - T0 are nef and J0 is all of
  S_T0, the ideal J0 contains S_T0 * S_{T-T0} = S_T.  For nef classes the
  polygon of the sum is the Minkowski sum of the polygons
  (Cox-Little-Schenck, section 6.1), whose lattice points are the sums of
  theirs (Haase-Nill-Paffenholz-Santos, Electron. J. Combin. 15 (2008);
  Fakhruddin, arXiv:math/0208178); the certificate reads it before listing;
- a rank of h0(T) mod P of the products, written once over the monomials
  of S_T with those outside C first.  It is a nonzero h0(T)-minor, so the
  rank over Q is h0(T) too;
- one exact integer elimination (linalg.echelon) of the same rows,
  started at C.  A lower rank mod P proves nothing, since P may divide
  every maximal minor of a full piece.

The commands that print only dim J1_D read it from j1_dim, which takes
the same steps for J1 at D through _unproved, but tries two bounds mod P
before the elimination (a rank mod P is at most the rank over Q,
linalg.rank_mod).
Let R be the rows of the J1 piece (at D - K, the monomials outside C
first) and R_out those rows cut to the columns outside C.  Then
dim J1_D = rank R - rank R_out <= #R - rank_P R_out, and dim J1_D <=
s(D).  The ideal J of the partial derivatives lies in J1, since
x * df/dx_rho = (x / x_rho) * g_rho, so the rank mod P of the rows
m * df/dx_rho at D is a lower bound.  When the two bounds meet, that is
the dimension, and no elimination runs.  When they miss, the upper
bound is still exact if the rows are independent and R_out has full
column rank: rank_P R = #R and rank_P R_out = #(columns outside C) prove
the same ranks over Q, so dim J1_D = #R - #(columns outside C), which is
the upper bound, since it is at most s(D).  That case needs fewer rows
than columns: more cannot be independent, and as many were shown
dependent by the failed rank test, so it skips the rank of R.
"""

from fractions import Fraction
from functools import cached_property
from math import prod
from operator import add, ge, mul

from .cox import CoxPolynomial, monomial_basis
from .divisors import (TorusDivisor, canonical_divisor, class_vec, columns, intersect,
                       is_nef, pic_class, ray_divisor)
from .errors import InputError, InternalError
from .fan import _det
from .groebner import is_unit_ideal
from .record import Value
from . import linalg

# The prime of the modular chart decision and of the full-rank test.  Any
# prime gives the same verdicts and pieces; a small one only sends more
# work to the exact routes.
P = linalg.P


def check_k_max(fan, k_max):
    """Refuse a certificate budget below 1, or one whose generator powers
    have a piece above MAX_BASIS_DIM, before any work."""
    if k_max < 1:
        raise InputError("k_max must be at least 1")
    for g in fan.irrelevant_generators():
        columns(fan, k_max * TorusDivisor(g))


class GradedSubspace(Value):
    """A subspace of one graded piece of the Cox ring.

    ambient lists the exponent tuples of the monomial basis; basis is a
    reduced echelon basis in those coordinates, {pivot: integer row} as
    linalg.echelon returns it.  Unhashable, since basis is a dict.
    """

    _fields = ("ambient", "basis")  # no __slots__: cached_property needs __dict__

    def __init__(self, ambient, basis):
        self._set(ambient, basis)

    @property
    def dim(self):
        return len(self.basis)

    @cached_property
    def pivots(self):
        return tuple(sorted(self.basis))

    @cached_property
    def rows(self):
        """The basis as dense Fraction rows with unit pivots, in pivot order."""
        return tuple(linalg.dense_row(self.basis[p], p, len(self.ambient))
                     for p in self.pivots)

    @cached_property
    def columns(self):
        """The column of each ambient monomial."""
        return {e: k for k, e in enumerate(self.ambient)}

    def residual(self, terms):
        """Residual {column: Fraction} of a polynomial modulo this piece.

        terms maps exponent tuples to coefficients; the residual is empty
        exactly when the polynomial lies in the piece.
        """
        vec = {}
        for e, c in terms.items():
            try:
                vec[self.columns[e]] = c
            except KeyError:
                raise InputError(f"monomial {e} is not in this graded piece") from None
        return linalg.reduce_vector(self.basis, vec)

    def coset_monomials(self):
        """Non-pivot monomials; their cosets are a basis of the quotient."""
        return tuple(e for k, e in enumerate(self.ambient) if k not in self.basis)

    def to_dict(self):
        return {
            "ambient": [list(e) for e in self.ambient],
            "rows": [[str(x) for x in row] for row in self.rows],
            "pivots": list(self.pivots),
        }


class NondegeneracyVerdict(Value):
    """Outcome of a nondegeneracy test.

    status is one of 'nondegenerate', 'degenerate' (exact chart decision),
    'certified' (positive saturation certificate with exponent k), or
    'undetermined' (no certificate up to k = k_max).
    """

    __slots__ = _fields = ("status", "k", "witness")

    def __init__(self, status, k=None, witness=None):
        self._set(status, k, witness)

    @property
    def label(self):
        if self.status == "certified":
            return f"certified({self.k})"
        if self.status == "undetermined":
            return f"undetermined(k_max={self.k})"
        return self.status

    def is_positive(self):
        return self.status in ("nondegenerate", "certified")


class JacobianSystem:
    """A homogeneous section f with its Euler terms and a cache of graded pieces."""

    def __init__(self, fan, f):
        if not isinstance(f, CoxPolynomial):
            raise InputError("f must be a CoxPolynomial")
        if f.fan.rays != fan.rays:
            raise InputError("f is a polynomial on a different fan")
        if f.is_zero():
            raise InputError("f must be a nonzero homogeneous polynomial")
        self.fan = fan
        self.f = f
        self.beta_class = f.homogeneous_class()
        self.beta_divisor = TorusDivisor(sorted(f.terms)[0])
        # f's denominators cleared once, den * f: term i holds e_i * c for
        # each term c * x^e of it with e_i > 0, the Euler term of ray i
        cleared = self._integral_f = linalg.integral(f.terms.items())[0]
        self._integral_terms = tuple(tuple((e, e[i] * c) for e, c in cleared.items() if e[i])
                                     for i in range(fan.n))
        self._cache = {}
        self._full_nef = []  # nef classes whose J0 piece the rank test proved full
        # (a_k, b_k, c_k) for k < n - 2 over the last cone's rays s, t (module docstring)
        s, t = fan.rays[-2:]
        beta = self.beta_divisor.coeffs
        self._relations = []
        for u, beta_k in zip(fan.rays[:-2], beta):
            a, b = _det(u, t), _det(s, u)
            self._relations.append((a, b, beta_k - a * beta[-2] - b * beta[-1]))
        self._check_euler_identities()
        j = max((k for k, (_, _, c) in enumerate(self._relations) if c), default=None)
        self._spanning_terms = tuple(g for i, g in enumerate(self._integral_terms)
                                     if g and i in (j, fan.n - 2, fan.n - 1))

    def _check_euler_identities(self):
        # term k - a_k term s - b_k term t = c_k * den * f, as whole term dicts
        *terms, gs, gt = self._integral_terms
        for g, (a, b, c) in zip(terms, self._relations):
            lhs = {}
            for p, h in ((1, g), (-a, gs), (-b, gt)):
                for e, x in h:
                    lhs[e] = lhs.get(e, 0) + p * x
            if ({e: x for e, x in lhs.items() if x}
                    != {e: c * x for e, x in self._integral_f.items() if c}):
                raise InternalError("Euler identity failed on construction")

    def _cached(self, kind, D, build):
        """build(D), computed once per kind and class of D."""
        key = (kind, pic_class(self.fan, D).vec)
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = build(D)
        return value

    def _basis(self, D):
        return self._cached("basis", D, lambda D: monomial_basis(self.fan, D))

    def section_dim(self, D):
        return len(self._basis(D))

    def _j0_rows(self, D, order):
        """The products m * g of class(D), g over the spanning Euler terms
        (f's denominators cleared), as sparse integer rows {column: int}
        over the monomials in order, less those the Koszul trim drops
        (module docstring).  They span J0 at class(D); the products of the
        other Euler terms are dependent rows."""
        column = {e: k for k, e in enumerate(order)}
        terms = self._spanning_terms
        leads = [max(e for e, _ in g) for g in terms]
        rows = []
        try:
            for m in self._basis(D - self.beta_divisor):
                for g, lead in zip(terms, leads):
                    rows.append({column[tuple(map(add, e, m))]: c for e, c in g})
                    if all(map(ge, m, lead)):  # the later terms' rows at m are dropped
                        break
        except KeyError:
            raise InternalError("product landed outside the expected graded piece") from None
        return rows

    def _j_rows(self, D):
        """The products m * df/dx_rho of class(D) (f's denominators
        cleared), as sparse integer rows over the monomials of S_D."""
        column = {e: k for k, e in enumerate(self._basis(D))}
        for rho, g in enumerate(self._integral_terms):
            if not g:
                continue
            # g holds e_rho * c at e; the derivative holds it at e - 1_rho
            dg = [(e[:rho] + (e[rho] - 1,) + e[rho + 1:], c) for e, c in g]
            for m in self._basis(D - self.beta_divisor + ray_divisor(self.fan, rho)):
                yield {column[tuple(map(add, e, m))]: c for e, c in dg}

    def _rank_mod(self, rows, n):
        """min(n, rank mod P) of the rows, at most their rank over Q."""
        return linalg.rank_mod(rows, n, P)

    def _closed(self, T):
        """Whether closure proves J0 all of S_T (module docstring)."""
        return any(is_nef(self.fan, T - T0) for T0 in self._full_nef)

    @staticmethod
    def _piece(ambient, rows, start):
        """The piece of an _unproved triple: all of S_D, with the basis echelon
        returns for it, when rows is None, else the echelon basis of the rows."""
        if rows is None:
            return GradedSubspace(ambient, {k: {k: 1} for k in range(len(ambient))})
        return GradedSubspace(ambient, linalg.echelon(rows, start))

    def _unproved(self, D, T, shift):
        """(ambient, rows, start): the monomials of S_D, and the J0 rows at
        class(T) over the monomials of S_T, for shift 1 those outside C
        first and then x * S_D from column start.  rows is None when the
        piece is empty or closure or the rank test proves J0 all of S_T."""
        ambient = order = self._basis(D)
        if not ambient or self._closed(T):
            return ambient, None, 0
        if shift:
            order = [e for e in self._basis(T) if min(e) < shift]  # outside C
            order += [tuple(a + shift for a in e) for e in ambient]
            if len(order) != self.section_dim(T):
                raise InternalError("shifted monomial missing from the target piece")
        rows = self._j0_rows(T, order)
        if self._proved_full(T, rows, len(order)):
            return ambient, None, 0
        return ambient, rows, len(order) - len(ambient)

    def _proved_full(self, T, rows, n):
        """Whether the rank test proves the J0 rows span all n monomials of
        S_T; a nef T so proved starts closure."""
        # fewer products than monomials cannot span
        if len(rows) < n or self._rank_mod(rows, n) < n:
            return False
        if is_nef(self.fan, T):
            self._full_nef.append(T)
        return True

    def j0_piece(self, D):
        """Graded piece of the Euler-term ideal at class(D)."""
        return self._cached("j0", D, lambda D: self._piece(*self._unproved(D, D, 0)))

    def j1_piece(self, D):
        """Graded piece at class(D) of J0 : (prod x_rho), read from J0 at
        class(D) - class(K) (module docstring)."""
        return self._cached("j1", D, lambda D: self._piece(
            *self._unproved(D, D - canonical_divisor(self.fan), 1)))

    def j1_dim(self, D):
        """dim J1 at class(D): the steps of j1_piece with the two bounds
        mod P, and the upper bound's exact case of independent rows (module
        docstring), tried before the elimination, whose piece is then kept
        as j1_piece's."""
        return self._cached("j1 dim", D, self._j1_dim)

    def _j1_dim(self, D):
        unproved = ambient, rows, start = self._unproved(D, D - canonical_divisor(self.fan), 1)
        if rows is None:
            return len(ambient)
        outside = [{c: x for c, x in v.items() if c < start} for v in rows]
        outside_rank = self._rank_mod(outside, start)
        upper = min(len(rows) - outside_rank, len(ambient))
        if self._rank_mod(self._j_rows(D), upper) == upper:
            return upper
        if (outside_rank == start and len(rows) < start + len(ambient)
                and self._rank_mod(rows, len(rows)) == len(rows)):
            return upper  # independent rows: the upper bound is exact
        return self._cached("j1", D, lambda D: self._piece(*unproved)).dim

    def _chart(self, i, j, whole, terms=None):
        """The Euler terms, or terms, on the chart of the cone of rays i and j,
        as {(e_i, e_j): int} polynomials: its axis x_j = 0, or the whole
        chart with the coordinate of larger maximal exponent in f last."""
        f = self._integral_f
        if whole and max(e[i] for e in f) > max(e[j] for e in f):
            i, j = j, i
        ideal = []
        for g in terms or self._integral_terms:
            chart = {}
            for e, coeff in g:
                if whole or not e[j]:
                    chart[e[i], e[j]] = chart.get((e[i], e[j]), 0) + coeff
            if any(chart.values()):
                ideal.append({m: c for m, c in chart.items() if c})
        return ideal

    def nondegenerate_decide(self):
        """Exact chart-by-chart decision, made mod P when it can be.

        On the chart of a maximal cone (x_i, x_j) the variables off the cone
        are set to 1, which identifies the chart with C^2; f is degenerate
        exactly when on some chart the substituted Euler terms have a
        common zero, that is, when they do not generate the unit ideal.
        Every chart contains the whole torus {x_i * x_j != 0}, so once one
        whole chart is the unit ideal there is no common zero on the torus,
        and every other chart can only have one on its axes.  The cones are
        (c, c + 1 mod n), so the axis x_i = 0 of chart c, apart from its
        origin, which is on the axis x_j = 0, is the axis x_j = 0 of chart
        c - 1 without that chart's origin: the axes x_j = 0 of the n charts
        cover the boundary.  An axis check keeps the terms free of x_j, an
        ideal in one variable, where Buchberger's algorithm is Euclid's.
        This holds over any algebraically closed field.

        The Euler terms of f with its denominators cleared cut out a
        closed subscheme Z of the toric scheme X over Z, which is proper
        since the fan is complete.  The modular pass checks the n axes,
        then the singular ideal (F, F_x, F_y) of F = den * f on the first
        chart on which f has the least total degree, which measured close
        to the cheapest.  When all are the unit ideal mod P, f is
        nondegenerate by the lemma of the groebner module, for this cover:
        let z be a Q-point of Z.  A constant f has no Euler terms, so no
        axis is the unit ideal; otherwise an Euler identity with c_k != 0
        puts F in the ideal of the Euler terms over Q, and as X is proper z
        specialises to a point z_P over F_P where the Euler terms and F
        vanish.  If z_P is in the torus, x F_x = y F_y = F = 0 there with
        x y != 0, so the singular ideal is not the unit ideal mod P.  If
        z_P is on a divisor D_rho, it lies on the axis x_j = 0 of some
        chart, whose check is then not the unit ideal mod P.  No ideal is
        divided by a content: the derivatives are taken term by term.

        A whole chart has its coordinate of larger exponent in f last in
        graded lex, the classical rule of ordering variables by degree;
        swapping the two coordinates is a ring automorphism, which maps the
        unit ideal to the unit ideal and no other ideal to it, so the order
        changes the run and never the answer.  A check can be the unit
        ideal mod P and not over Q, and the singular ideal need not be the
        unit ideal for a nondegenerate f, so once some check is not the
        unit ideal mod P the decision is made over Q: chart 0 whole on the
        Euler terms, then the axis of every later chart, and the first
        degenerate chart is the witness.
        """
        cones = self.fan.maximal_cones
        start = min(cones, key=lambda cone: max(e[cone[0]] + e[cone[1]] for e in self._integral_f))
        (F,) = self._chart(*start, True, [self._integral_f.items()])
        singular = [F, {(a - 1, b): a * c for (a, b), c in F.items() if a},
                    {(a, b - 1): b * c for (a, b), c in F.items() if b}]
        if (all(is_unit_ideal(self._chart(i, j, False), P) for i, j in cones)
                and is_unit_ideal(singular, P)):
            return NondegeneracyVerdict("nondegenerate")
        for c, (i, j) in enumerate(cones):
            if not is_unit_ideal(self._chart(i, j, c == 0)):
                witness = f"chart {c}: cone ({self.fan.labels[i]}, {self.fan.labels[j]})"
                return NondegeneracyVerdict("degenerate", witness=witness)
        return NondegeneracyVerdict("nondegenerate")

    def saturation_certificate(self, k_max=8):
        """Nondegeneracy certificate by irrelevant-ideal powers.

        If every degree-k product of the irrelevant generators lies in J0
        then the Euler terms cannot vanish simultaneously off the excluded
        locus, which certifies nondegeneracy.  Conversely, a nondegenerate
        f has B in rad(J0) for the irrelevant ideal B by the
        Nullstellensatz, so some power B^k lies in J0; 'undetermined'
        only means that k_max was below the least such k.  check_k_max
        refuses a k_max first.

        Each power is tested by Picard class: its products grouped by
        class, the classes in increasing Riemann-Roch chi(D) = 1 +
        D.(D - K)/2 (ties by class vector).  The test of a power is still
        all() over the same products, so the order cannot change whether a
        power passes, and the least certifying k and the label are those of
        any order.  It only changes the work: a failing power is refuted on
        one of its smallest classes, and a small full class proved by the
        rank test starts closure for the larger ones.  Closure is read once
        per class before anything is listed, so a class it proves full is
        never listed and no piece is built for it.
        """
        check_k_max(self.fan, k_max)
        fan = self.fan
        gens = fan.irrelevant_generators()
        # exponents in mixed radix, the first most significant: a product is
        # the sum of its factors' codes, and its class is the sum of its
        # factors' classes
        radix = [k_max * max(g[i] for g in gens) + 1 for i in range(fan.n)]
        weights = [prod(radix[i + 1:]) for i in range(fan.n)]
        steps = [(sum(map(mul, g, weights)), class_vec(fan, g)) for g in gens]
        K = canonical_divisor(fan)

        def chi_order(v):  # 2 chi(D) - 2, then the class vector
            D = TorusDivisor((0, 0) + v)
            return intersect(fan, D, D - K), v

        products = {0: (0,) * (fan.n - 2)}
        for k in range(1, k_max + 1):
            products = {p + c: tuple(map(add, v, w))
                        for p, v in products.items() for c, w in steps}
            classes = {}
            for p, v in products.items():
                classes.setdefault(v, []).append(p)
            if all(self._in_j0([self._decode(p, weights) for p in classes[v]])
                   for v in sorted(classes, key=chi_order)):
                return NondegeneracyVerdict("certified", k=k)
        return NondegeneracyVerdict("undetermined", k=k_max)

    @staticmethod
    def _decode(code, weights):
        """The exponent tuple of a mixed-radix code."""
        e = []
        for w in weights:
            x, code = divmod(code, w)
            e.append(x)
        return tuple(e)

    def _in_j0(self, monomials):
        """Whether every x^e, e in monomials, of one class lies in J0: true
        when closure proves J0 full there, else read from the cached J0
        piece.  In its reduced echelon basis x^e is a member exactly when
        the column of e is a pivot whose row is that unit vector."""
        D = TorusDivisor(monomials[0])
        if self._closed(D):
            return True
        piece = self.j0_piece(D)
        return all(len(piece.basis.get(piece.columns[e], ())) == 1 for e in monomials)

    def multiplication_matrix(self, eta, D_from, D_to):
        """Matrix of multiplication by eta between quotient coset bases."""
        want = pic_class(self.fan, D_to - D_from)
        if not eta.is_zero() and eta.homogeneous_class() != want:
            raise InputError("class(eta) + class(source) != class(target)")
        fcosets = self.j1_piece(D_from).coset_monomials()
        tpiece = self.j1_piece(D_to)
        tsel = [tpiece.columns[e] for e in tpiece.coset_monomials()]
        matrix = []
        for e in fcosets:
            red = tpiece.residual({tuple(a + b for a, b in zip(m, e)): c
                                   for m, c in eta.terms.items()})
            matrix.append([red.get(k, Fraction(0)) for k in tsel])
        return matrix
