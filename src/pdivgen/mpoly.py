"""Sparse multivariate polynomials over the rationals.

A polynomial is a mapping {exponent tuple: coefficient}, where an
integral coefficient is an int and any other a Fraction; the number of
variables is fixed per polynomial.  Just enough arithmetic for section
spaces: products, powers, exact division and the values of partial
derivatives at a point.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, lcm, perm, prod
from operator import mul


class MPoly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for e, c in terms.items():
                c = _rational(c)
                if c:
                    self.terms[tuple(e)] = c

    @classmethod
    def _of(cls, nvars, terms):
        """Wrap terms that already map exponent tuples to nonzero
        coefficients, each an int when integral and a Fraction otherwise."""
        p = cls.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {tuple([0] * nvars): c})

    @classmethod
    def variable(cls, nvars, i):
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1})

    @classmethod
    def monomial(cls, nvars, exps, c=1):
        return cls(nvars, {tuple(exps): c})

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
        return MPoly._of(self.nvars, _tidied(out))

    def __neg__(self):
        return MPoly._of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return MPoly(self.nvars)
            return MPoly._of(self.nvars, _tidied({e: c * other for e, c in self.terms.items()}))
        self._check_nvars(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return MPoly._of(self.nvars, _tidied(out))

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError(f"a polynomial has no power with the negative exponent {k}")
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
        self._check_nvars(other)
        return other

    def _check_nvars(self, other):
        """Refuse a polynomial in another number of variables, which the
        exponent arithmetic would truncate or misread."""
        if other.nvars != self.nvars:
            raise ValueError(
                f"polynomials in {self.nvars} and {other.nvars} variables in one operation"
            )

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

    def divide_exact(self, divisor):
        """Exact quotient self / divisor, or None if not divisible."""
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        rem = self
        quot = MPoly.constant(self.nvars, 0)
        de, dc = divisor.leading()
        while rem:
            re, rc = rem.leading()
            qe = tuple(a - b for a, b in zip(re, de))
            if any(x < 0 for x in qe):
                return None
            t = MPoly.monomial(self.nvars, qe, Fraction(rc, dc))
            quot = quot + t
            rem = rem - t * divisor
        return quot

    def content_normalized(self):
        """Scale to integer coefficients with content 1 and positive lead."""
        if not self.terms:
            return self
        scale = lcm(*(c.denominator for c in self.terms.values()))
        ints = {e: c.numerator * (scale // c.denominator) for e, c in self.terms.items()}
        g = gcd(*ints.values())
        _, lead = max(ints.items())
        if lead < 0:
            g = -g
        return MPoly._of(self.nvars, {e: c // g for e, c in ints.items()})

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


def _rational(c):
    """The rational number c as an int when integral, else as a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _tidied(terms):
    """The terms, with each integral Fraction coefficient made an int in place."""
    for e, c in terms.items():
        if type(c) is not int and c.denominator == 1:
            terms[e] = c.numerator
    return terms


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


def derivative_rows(exps, point, order):
    """The values at the projective point of the partial derivatives of the
    given order of the monomials: one row per derivative that is not zero
    there, one column per exponent.  The derivative d^a of x^e is
    prod perm(e_i, a_i) x_i^(e_i - a_i), zero where some a_i exceeds e_i."""
    for e in exps:
        if len(e) != len(point):
            raise ValueError(f"a point of width {len(point)} for {len(e)} variables")
    rows = []
    for a in monomials_of_degree(len(point), order):
        row = [
            prod(perm(k, j) * x ** (k - j) for k, j, x in zip(e, a, point))
            if all(j <= k for j, k in zip(a, e))
            else 0
            for e in exps
        ]
        if any(row):
            rows.append(row)
    return rows


def multiplicity_at(poly, point):
    """Order of vanishing of a homogeneous form at a projective point: the
    least order of a partial derivative that is not zero there."""
    coeffs = list(poly.terms.values())
    for k in range(poly.total_degree() + 1):
        if any(sum(map(mul, coeffs, row)) for row in derivative_rows(poly.terms, point, k)):
            return k
    return poly.total_degree() + 1
