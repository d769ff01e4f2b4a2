"""Sparse multivariate polynomials over the rationals.

A polynomial is a mapping {exponent tuple: coefficient}, where an
integral coefficient is an int and any other a Fraction; the number of
variables is fixed per polynomial.  Just enough arithmetic for section
spaces: products, powers, affine shifts and exact division.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, gcd, inf, lcm, prod


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

    def shift(self, point, below=inf):
        """Substitute x_i -> x_i + point_i, keeping the terms of total
        degree below ``below``.

        Each term expands by the binomial theorem: x_i^k becomes
        sum_j C(k, j) point_i^(k - j) x_i^j.  A partial product already at
        degree ``below`` is dropped, since the later factors only add
        degree.
        """
        if len(point) != self.nvars:
            raise ValueError(f"a point of width {len(point)} for {self.nvars} variables")
        point = [_rational(a) for a in point]
        out = {}
        for e, c in self.terms.items():
            expanded = [((), c, 0)]
            for k, a in zip(e, point):
                if a and k:
                    steps = [(j, comb(k, j) * a ** (k - j)) for j in range(k + 1)]
                    expanded = [
                        (ex + (j,), t * f, n + j)
                        for ex, t, n in expanded
                        for j, f in steps
                        if n + j < below
                    ]
                else:
                    expanded = [(ex + (k,), t, n + k) for ex, t, n in expanded if n + k < below]
            for ex, t, _ in expanded:
                out[ex] = out.get(ex, 0) + t
        return MPoly._of(self.nvars, _tidied({e: c for e, c in out.items() if c}))

    def dehomogenize(self, var, value=1):
        """Set variable `var` to a constant, dropping it from the support."""
        value = _rational(value)
        out = {}
        for e, c in self.terms.items():
            c = c * value ** e[var]
            if not c:
                continue
            e2 = e[:var] + (0,) + e[var + 1 :]
            out[e2] = out.get(e2, 0) + c
        return MPoly._of(self.nvars, _tidied({e: c for e, c in out.items() if c}))

    def low_degree(self):
        """Smallest total degree among terms (order of vanishing at 0)."""
        return min((sum(e) for e in self.terms), default=None)

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


def _affine(point):
    """The chart of the projective point's first nonzero coordinate, and
    the point there, with 0 at that coordinate, which ``dehomogenize`` sets
    to 1."""
    chart = next(i for i, x in enumerate(point) if x != 0)
    scale = point[chart]
    return chart, [_rational(Fraction(x, scale)) if i != chart else 0 for i, x in enumerate(point)]


def _value(poly, point):
    """The form's value at the point, in integer or rational products."""
    return sum(c * prod(map(pow, point, e)) for e, c in poly.terms.items())


def taylor_rows(polys, point, below):
    """The coefficients of total degree below ``below`` of the forms about
    the projective point: one row per exponent that occurs, in sorted
    order, and one column per form.  Below order 1 that is the forms'
    values at the point in its chart, with no expansion."""
    chart, origin = _affine(point)
    if below == 1:
        origin[chart] = 1
        row = [_value(p, origin) for p in polys]
        return [row] if any(row) else []
    shifted = [p.dehomogenize(chart, 1).shift(origin, below) for p in polys]
    exps = sorted({e for mp in shifted for e in mp.terms})
    return [[mp.terms.get(e, 0) for mp in shifted] for e in exps]


def multiplicity_at(poly, point):
    """Order of vanishing of a homogeneous form at a projective point.

    The form's value at the point alone says whether it vanishes there;
    only then is it moved to the point, in the affine chart of the point's
    first nonzero coordinate, and expanded in full.
    """
    if len(point) != poly.nvars:
        raise ValueError(f"a point of width {len(point)} for {poly.nvars} variables")
    if _value(poly, point):
        return 0
    chart, origin = _affine(point)
    low = poly.dehomogenize(chart, 1).shift(origin).low_degree()
    return poly.total_degree() + 1 if low is None else low
