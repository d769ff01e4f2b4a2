"""Sparse multivariate polynomials over the rationals.

A polynomial is a mapping {exponent tuple: Fraction}; the number of
variables is fixed per polynomial.  Just enough arithmetic for section
spaces: products, powers, affine shifts and exact division.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, lcm


class MPoly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for e, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[tuple(e)] = c

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {tuple([0] * nvars): Fraction(c)})

    @classmethod
    def variable(cls, nvars, i):
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): Fraction(1)})

    @classmethod
    def monomial(cls, nvars, exps, c=1):
        return cls(nvars, {tuple(exps): Fraction(c)})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, MPoly):
            return self.nvars == other.nvars and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MPoly(self.nvars, out)

    def __neg__(self):
        return MPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MPoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return MPoly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        out = MPoly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return MPoly.constant(self.nvars, other)
        return other

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def is_term(self):
        return len(self.terms) == 1

    def leading(self):
        """(exponent, coefficient) of the lex-largest term."""
        e = max(self.terms)
        return e, self.terms[e]

    def evaluate(self, point):
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                v *= Fraction(x) ** k
            total += v
        return total

    def shift(self, point):
        """Substitute x_i -> x_i + point_i."""
        out = MPoly.constant(self.nvars, 0)
        for e, c in self.terms.items():
            term = MPoly.constant(self.nvars, c)
            for i, k in enumerate(e):
                lin = MPoly.variable(self.nvars, i) + MPoly.constant(
                    self.nvars, point[i]
                )
                term = term * lin**k
            out = out + term
        return out

    def dehomogenize(self, var, value=1):
        """Set variable `var` to a constant, dropping it from the support."""
        out = {}
        for e, c in self.terms.items():
            c = c * Fraction(value) ** e[var]
            if not c:
                continue
            e2 = e[:var] + (0,) + e[var + 1 :]
            out[e2] = out.get(e2, 0) + c
        return MPoly(self.nvars, out)

    def low_degree(self):
        """Smallest total degree among terms (order of vanishing at 0)."""
        return min((sum(e) for e in self.terms), default=None)

    def divide_exact(self, divisor):
        """Exact quotient self / divisor, or None if not divisible."""
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        rem = MPoly(self.nvars, dict(self.terms))
        quot = MPoly.constant(self.nvars, 0)
        de, dc = divisor.leading()
        while rem:
            re, rc = rem.leading()
            qe = tuple(a - b for a, b in zip(re, de))
            if any(x < 0 for x in qe):
                return None
            t = MPoly.monomial(self.nvars, qe, rc / dc)
            quot = quot + t
            rem = rem - t * divisor
        return quot

    def content_normalized(self):
        """Scale to integer coefficients with content 1 and positive lead."""
        if not self.terms:
            return self
        scale = lcm(*(c.denominator for c in self.terms.values()))
        ints = {e: c * scale for e, c in self.terms.items()}
        g = gcd(*(c.numerator for c in ints.values()))
        _, lead = max(ints.items())
        sign = -1 if lead < 0 else 1
        return MPoly(self.nvars, {e: c * sign / g for e, c in ints.items()})

    def format(self, names):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                names[i] if k == 1 else f"{names[i]}^{k}"
                for i, k in enumerate(e)
                if k
            )
            if mono:
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
            else:
                parts.append(str(c))
        s = " + ".join(parts)
        return s.replace("+ -", "- ")

    def __repr__(self):
        names = [f"x{i}" for i in range(self.nvars)]
        return f"MPoly({self.format(names)})"


def monomials_of_degree(nvars, degree):
    """All exponent tuples of the given total degree, lex-descending."""
    if degree < 0:
        return []
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return sorted(out, reverse=True)


def multiplicity_at(poly, point):
    """Order of vanishing of a homogeneous form at a projective point."""
    chart = next(i for i, x in enumerate(point) if x != 0)
    aff = poly.dehomogenize(chart, 1)
    # move the point to the origin of the affine chart x_chart = 1
    shift_pt = [
        Fraction(point[i], point[chart]) if i != chart else Fraction(0)
        for i in range(poly.nvars)
    ]
    shifted = aff.shift(shift_pt)
    low = shifted.low_degree()
    return poly.total_degree() + 1 if low is None else low
