"""The Picard-graded Cox ring of a surface fan over exact rationals.

Polynomials are sparse dicts from exponent tuples (one entry per stored
ray) to nonzero Fractions.  Monomial bases are listed from the section
polygon in the coordinates of the first cone, where they come out sorted,
so every basis and every printed polynomial is deterministic.
"""

import re
from fractions import Fraction
from itertools import repeat

# polytope is unused here, but perfbench/spans.py wraps it under this name
from .divisors import PicClass, class_vec, columns, polytope  # noqa: F401
from .errors import InputError, InternalError
from .fan import LABEL, _label_key, _tuple


def monomial_basis(fan, D):
    """Exponent tuples of the monomials spanning the graded piece of class(D).

    Each lattice point m of the section polygon gives the exponent vector
    (<m, u_rho> + a_rho)_rho; the result depends only on the class of D.
    In the first cone's coordinates (divisors._columns) the rays are the
    columns of fan.hnf_rows; along a column x each exponent steps by u_rho[1]
    in y, so one zip of ranges (a repeat for step 0) lists it, in sorted order.
    """
    out = []
    rays = tuple(zip(*fan.hnf_rows))
    for x, low, high in columns(fan, D):
        n = high - low + 1
        ends = [(x * ux + low * uy + a, uy) for (ux, uy), a in zip(rays, D.coeffs)]
        if any(min(e, e + (n - 1) * step) < 0 for e, step in ends):
            raise InternalError("polytope point gave a negative exponent")
        out.extend(zip(*(range(e, e + n * step, step) if step else repeat(e, n)
                         for e, step in ends)))
    return tuple(out)


class CoxPolynomial:
    """Sparse Cox-ring polynomial: a checked map from exponent tuples to
    nonzero Fraction coefficients.  It has no arithmetic operators; the
    library only reads its terms."""

    __slots__ = ("fan", "terms", "_class")

    def __init__(self, fan, terms=None):
        self.fan = fan
        if terms is None:
            terms = {}
        if not isinstance(terms, dict):
            raise InputError(f"terms must be a dict from exponent tuples "
                             f"to coefficients, got {terms!r}")
        clean = {}
        for exps, c in terms.items():
            # exact type checks: a bool is an int and a float is inexact
            if type(c) not in (int, Fraction):
                raise InputError(f"bad coefficient {c!r}; give an int or a Fraction")
            exps = _tuple(exps, "an exponent tuple")
            if len(exps) != fan.n:
                raise InputError("exponent tuple length does not match the ray count")
            if not all(type(e) is int for e in exps):
                raise InputError(f"exponents in {exps} must be ints")
            if any(e < 0 for e in exps):
                raise InputError(f"negative exponent in {exps}")
            if c:
                clean[exps] = Fraction(c)
        self.terms = clean
        self._class = None

    def is_zero(self):
        return not self.terms

    def homogeneous_class(self):
        """Common Picard class of all terms (None for the zero polynomial),
        computed on the first call."""
        if self._class is None and self.terms:
            vecs = {class_vec(self.fan, e) for e in self.terms}
            if len(vecs) > 1:
                raise InputError("polynomial is not homogeneous")
            self._class = PicClass(vecs.pop(), self.fan.basis_id)
        return self._class

    def sorted_terms(self):
        return [(e, self.terms[e]) for e in sorted(self.terms, reverse=True)]

    def to_text(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mono = self.fan.monomial_label(e)
            mag = abs(c)
            if mono == "1":
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def to_json(self):
        return {"terms": [{"exps": list(e), "coeff": str(c)}
                          for e, c in self.sorted_terms()]}

    def __repr__(self):
        return f"CoxPolynomial({self.to_text()})"


def poly_from_json(fan, obj):
    """Read {'terms': [{'exps': [...], 'coeff': 'p/q'}, ...]}."""
    if not isinstance(obj, dict) or not isinstance(obj.get("terms"), list):
        raise InputError("polynomial JSON must be an object with a 'terms' list")
    terms = {}
    for t in obj["terms"]:
        if not isinstance(t, dict) or "exps" not in t or "coeff" not in t:
            raise InputError("each term needs 'exps' and 'coeff'")
        exps, coeff = t["exps"], t["coeff"]
        # exact type checks: JSON booleans are ints and floats are inexact
        if not isinstance(exps, list) or not all(type(x) is int for x in exps):
            raise InputError("term 'exps' must be a list of integers")
        if type(coeff) not in (int, str):
            raise InputError(f"bad coefficient {coeff!r}; give an integer "
                             "or a string such as '-3/4'")
        try:
            c = Fraction(coeff)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"bad coefficient {coeff!r}") from None
        e = tuple(exps)
        terms[e] = terms.get(e, 0) + c
    return CoxPolynomial(fan, terms)


# a factor: an integer, p/q, or a name with an optional ^exponent
_FACTOR = rf"(\d+)(?:\s*/\s*(\d+))?|({LABEL})(?:\s*\^\s*(\d+))?"
_FACTORS = re.compile(_FACTOR)
# a signed term: a run of signs (empty only for the first term, checked by the
# caller), then factors joined by *
_TERM = re.compile(rf"\s*((?:[-+]\s*)*)((?:{_FACTOR})(?:\s*\*\s*(?:{_FACTOR}))*)\s*")


def poly_from_text(fan, text):
    """Parse expressions like 'x1^5*x2^3 + 2*x4 - 1/2*x3^2'.

    Grammar: signed terms, each a run of + and - signs (empty only for the
    first term) and factors joined by *; a factor is an integer, a fraction
    p/q, or a variable with an optional ^exponent.  Repeated variables add
    their exponents, and terms on the same monomial are summed.
    """
    if not text.strip():
        raise InputError("empty polynomial expression")
    terms = {}
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or (pos and not m.group(1)):
            raise InputError(f"cannot parse polynomial near {text[pos:].strip()[:12]!r}")
        pos = m.end()
        coeff = Fraction(-1 if m.group(1).count("-") % 2 else 1)
        exps = [0] * fan.n
        for num, den, name, exp in _FACTORS.findall(m.group(2)):
            if name:
                exps[fan.position(name)] += int(exp or 1)
            elif int(den or 1):
                coeff *= Fraction(int(num), int(den or 1))
            else:
                raise InputError("zero denominator")
        e = tuple(exps)
        s = terms.get(e, 0) + coeff
        if s:
            terms[e] = s
        else:
            terms.pop(e, None)
    return CoxPolynomial(fan, terms)
