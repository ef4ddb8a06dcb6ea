"""Graded pieces of toric Jacobian ideals and multiplication maps on quotients.

For a homogeneous f the Euler terms are g_rho = x_rho df/dx_rho.  They
generate J0; the criterion and the rank-g search read the quotient by
J1 = J0 : (prod x_rho).  The Euler relations phi with phi(beta) = 0
leave at most three of the g_rho spanning all of them.  With f's
denominators cleared once, every graded piece is one integer elimination
(linalg.echelon) of the products m * g of those spanning terms, each a
sparse integer row written straight from the terms of g.  Multiplication
by x = prod x_rho maps S_D injectively onto the span C of the monomials
of class D - K that every variable divides, so x * J1_D = J0_{D-K} ∩ C:
the echelon of the J0 products at D - K, with the columns outside C
first, started at C.

A piece that is all of S_T (J0 at T, or J1 at D with T = D - K) is
proved so without an exact elimination: a rank of h0(T) mod P is a
nonzero h0(T)-minor, so the rank over Q is h0(T) too.  Or by closure: if
T0 and T - T0 are nef and J0 is all of S_T0, the ideal J0 contains
S_T0 * S_{T-T0} = S_T.  For nef classes the polygon of the sum is the
Minkowski sum of the polygons (Cox-Little-Schenck, section 6.1), whose
lattice points are the sums of theirs (Haase-Nill-Paffenholz-Santos,
Electron. J. Combin. 15 (2008); Fakhruddin, arXiv:math/0208178).
Otherwise the piece is eliminated exactly: a lower rank mod P proves
nothing, since P may divide every maximal minor of a full piece.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import add

from .cox import CoxPolynomial, monomial_basis
from .divisors import TorusDivisor, canonical_divisor, columns, is_nef, pic_class
from .errors import InputError, InternalError
from .groebner import is_unit_ideal
from . import linalg

# The prime of the modular chart decision and of the full-rank test.  Any
# prime gives the same verdicts and pieces; a small one only sends more
# work to the exact routes.
P = 2**31 - 1


@dataclass(frozen=True)
class GradedSubspace:
    """A subspace of one graded piece of the Cox ring.

    ambient lists the exponent tuples of the monomial basis; basis is a
    reduced echelon basis in those coordinates, {pivot: integer row} as
    linalg.echelon returns it.
    """

    ambient: tuple
    basis: dict

    @classmethod
    def full(cls, ambient):
        """The whole piece, with the basis echelon returns for it."""
        return cls(ambient, {k: {k: 1} for k in range(len(ambient))})

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

    @property
    def ambient_dim(self):
        return len(self.ambient)

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


@dataclass(frozen=True)
class NondegeneracyVerdict:
    """Outcome of a nondegeneracy test.

    status is one of 'nondegenerate', 'degenerate' (exact chart decision),
    'certified' (positive saturation certificate with exponent k), or
    'undetermined' (no certificate up to k = k_max).
    """

    status: str
    k: int = None
    witness: str = None

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
        # f's denominators cleared once: term i holds e_i * c for each
        # term c * x^e of den * f with e_i > 0, the Euler term of ray i
        den = lcm(*(c.denominator for c in f.terms.values()))
        cleared = [(e, c.numerator * (den // c.denominator)) for e, c in f.terms.items()]
        self._integral_terms = tuple(tuple((e, e[i] * c) for e, c in cleared if e[i])
                                     for i in range(fan.n))
        self._cache = {}
        self._full_nef = []  # nef classes whose J0 piece the rank test proved full
        self._check_euler_identities()
        # The Euler relations phi with phi(beta) = 0, the kernel of the rays
        # and beta, give each term at a pivot as a combination of the others:
        # the terms off the pivots, at most three, span all of them.
        rays_and_beta = [[u[0] for u in fan.rays], [u[1] for u in fan.rays],
                         list(self.beta_divisor.coeffs)]
        _, pivots = linalg.kernel(rays_and_beta, fan.n)
        self._spanning_terms = tuple(g for i, g in enumerate(self._integral_terms)
                                     if g and i not in pivots)

    def _check_euler_identities(self):
        # For every weight vector phi in the kernel of the ray matrix, scaled
        # to integers, sum(phi_i * term i) must equal phi(beta) * den * f,
        # compared as whole term dicts with the zero coefficients dropped.
        rows = [[u[0] for u in self.fan.rays], [u[1] for u in self.fan.rays]]
        ker_rows, _ = linalg.kernel(rows, self.fan.n)
        den = lcm(*(c.denominator for c in self.f.terms.values()))
        for phi in ker_rows:
            scale = lcm(*(p.denominator for p in phi))
            phi = [p.numerator * (scale // p.denominator) for p in phi]
            const = sum(p * a for p, a in zip(phi, self.beta_divisor.coeffs))
            lhs = {}
            for p, g in zip(phi, self._integral_terms):
                for e, c in g:
                    lhs[e] = lhs.get(e, 0) + p * c
            lhs = {e: c for e, c in lhs.items() if c}
            rhs = {e: const * den * c for e, c in self.f.terms.items() if const}
            if lhs != rhs:
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
        over the monomials in order.  They span J0 at class(D); the
        products of the other Euler terms are dependent rows."""
        column = {e: k for k, e in enumerate(order)}
        try:
            return [{column[tuple(map(add, e, m))]: c for e, c in g}
                    for m in self._basis(D - self.beta_divisor)
                    for g in self._spanning_terms]
        except KeyError:
            raise InternalError("product landed outside the expected graded piece") from None

    def _spans_all(self, T):
        """Whether J0 at class(T) is proved all of S_T without an exact elimination.

        True is a proof: closure from a nef T0 that the rank test proved
        full, with T - T0 nef (module docstring: Cox-Little-Schenck 6.1,
        Haase-Nill-Paffenholz-Santos), or a rank of h0(T) mod P, a nonzero
        minor.  False proves nothing, and the caller eliminates exactly.
        Fewer products than h0(T) cannot span, so the rank test is not tried.
        """
        nef = is_nef(self.fan, T)
        if nef and any(is_nef(self.fan, T - T0) for T0 in self._full_nef):
            return True
        basis = self._basis(T)
        if len(self._spanning_terms) * self.section_dim(T - self.beta_divisor) < len(basis):
            return False
        full = linalg.spans_mod(self._j0_rows(T, basis), len(basis), P)
        if full and nef:
            self._full_nef.append(T)
        return full

    def j0_piece(self, D):
        """Graded piece of the Euler-term ideal at class(D)."""
        return self._cached("j0", D, self._build_j0)

    def _build_j0(self, D):
        ambient = self._basis(D)
        if self._spans_all(D):
            return GradedSubspace.full(ambient)
        return GradedSubspace(ambient, linalg.echelon(self._j0_rows(D, ambient), 0))

    def j1_piece(self, D):
        """Graded piece at class(D) of J0 : (prod x_rho).

        Multiplication by prod x_rho adds 1 to every exponent, which keeps
        the lex order, and maps the basis of class(D) onto the monomials C
        of class(D) - class(K) that every variable divides.  With the
        columns outside C first, the echelon of the J0 products there
        started at C is the reduced echelon basis of J0 ∩ C, that is, of
        the J1 piece in the coordinates of class(D).
        """
        return self._cached("j1", D, self._build_j1)

    def _build_j1(self, D):
        ambient = self._basis(D)
        if not ambient:
            return GradedSubspace((), {})
        target = D - canonical_divisor(self.fan)
        tbasis = self._basis(target)
        shifted = [tuple(a + 1 for a in e) for e in ambient]
        inside = set(shifted)
        if not inside.issubset(tbasis):
            raise InternalError("shifted monomial missing from the target piece")
        # J0 all of S_{D-K} contains x * S_D, so J1 is all of S_D
        if self._spans_all(target):
            return GradedSubspace.full(ambient)
        order = [e for e in tbasis if e not in inside] + shifted
        start = len(order) - len(shifted)
        return GradedSubspace(ambient, linalg.echelon(self._j0_rows(target, order), start))

    def r1_dim(self, D):
        """Dimension of the graded piece of the quotient ring S/J1."""
        return self.section_dim(D) - self.j1_piece(D).dim

    def nondegenerate_decide(self):
        """Exact chart-by-chart decision, made mod P when it can be.

        On the chart of a maximal cone (x_i, x_j) the variables off the cone
        are set to 1, which identifies the chart with C^2; f is degenerate
        exactly when on some chart the substituted Euler terms have a
        common zero, that is, when they do not generate the unit ideal.
        Every chart contains the whole torus {x_i * x_j != 0}, so once the
        first chart's ideal is the unit ideal there is no common zero on
        the torus, and a later chart can only have one on its axes.  The
        cones are (c, c + 1 mod n) in order, so the axis x_i = 0 of chart
        c >= 1 lies in chart c - 1, apart from its origin, which is on the
        axis x_j = 0.  A later chart therefore only checks the terms free
        of x_j, an ideal in one variable, where Buchberger's algorithm is
        Euclid's.  This holds over any algebraically closed field.

        The Euler terms of f with its denominators cleared cut out a
        closed subscheme of the toric scheme over Z, which is proper since
        the fan is complete.  So when every chart is the unit ideal mod P,
        f is nondegenerate by the lemma of the groebner module; the
        restrictions only add integer coefficients and are never divided
        by a content.  One chart can be the unit ideal mod P and not over
        Q, so once some chart is not the unit ideal mod P, the decision is
        made over the rationals from chart 0 on, and the first degenerate
        chart is the witness.
        """
        cones = self.fan.maximal_cones
        charts = []
        for c, (i, j) in enumerate(cones):
            ideal = []
            for g in self._integral_terms:
                chart = {}
                for e, coeff in g:
                    if c and e[j]:
                        continue
                    m = (e[i], e[j])
                    s = chart.get(m, 0) + coeff
                    if s:
                        chart[m] = s
                    else:
                        chart.pop(m, None)
                if chart:
                    ideal.append(chart)
            charts.append(ideal)
        if not all(is_unit_ideal(ideal, P) for ideal in charts):
            for c, ideal in enumerate(charts):
                if not is_unit_ideal(ideal):
                    i, j = cones[c]
                    witness = (f"chart {c}: cone ({self.fan.labels[i]}, "
                               f"{self.fan.labels[j]})")
                    return NondegeneracyVerdict("degenerate", witness=witness)
        return NondegeneracyVerdict("nondegenerate")

    def saturation_certificate(self, k_max=8):
        """Nondegeneracy certificate by irrelevant-ideal powers.

        If every degree-k product of the irrelevant generators lies in J0
        then the Euler terms cannot vanish simultaneously off the excluded
        locus, which certifies nondegeneracy.  Conversely, a nondegenerate
        f has B in rad(J0) for the irrelevant ideal B by the
        Nullstellensatz, so some power B^k lies in J0; 'undetermined'
        only means that k_max was below the least such k.  A k_max whose
        generator powers have a piece above MAX_BASIS_DIM is refused first.
        """
        if k_max < 1:
            raise InputError("k_max must be at least 1")
        gens = self.fan.irrelevant_generators()
        for g in gens:
            columns(self.fan, k_max * TorusDivisor(g))
        products = {(0,) * self.fan.n}
        for k in range(1, k_max + 1):
            products = {tuple(a + b for a, b in zip(p, g))
                        for p in products for g in gens}
            if not any(self.j0_piece(TorusDivisor(exps)).residual({exps: 1})
                       for exps in sorted(products)):
                return NondegeneracyVerdict("certified", k=k)
        return NondegeneracyVerdict("undetermined", k=k_max)

    def multiplication_matrix(self, eta, D_from, D_to):
        """Matrix of multiplication by eta between quotient coset bases."""
        if not eta.is_zero():
            ec = eta.homogeneous_class()
            want = pic_class(self.fan, D_to)
            if ec + pic_class(self.fan, D_from) != want:
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
