"""Variety backends: divisors, global sections, function-field elements.

Three backends ship, each a subclass of ``Variety``: a point, projective
space, and the blow-up of the plane in four points.  Sections are
represented as fractions whose denominators stay factored into the
registered defining forms, so that products and span tests reduce to
linear algebra on numerators.  Span tests run ``intlinalg``'s fraction-free
elimination on sparse rows, one row per section as it arrives, and the
multiplicity conditions of the blow-up take its rational kernel.
"""

from itertools import chain, combinations
from math import gcd, lcm
from typing import NamedTuple

from .intlinalg import rational_kernel
from .mpoly import MPoly, _rational, monomials_of_degree, multiplicity_at, taylor_rows


class NonIntegralDivisor(ValueError):
    pass


class UnsupportedBackend(ValueError):
    pass


class NotTMoveable(ValueError):
    pass


# ---------------------------------------------------------------------------
# divisors


class QDivisor:
    """Finite formal rational combination of prime divisor labels.

    An integral coefficient is stored as an int, any other as a Fraction.
    """

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for k, v in coeffs.items():
                v = _rational(v)
                if v:
                    self.coeffs[k] = v

    @classmethod
    def _of(cls, coeffs):
        """Wrap nonzero coefficients, each an int when integral and a
        Fraction otherwise."""
        d = cls.__new__(cls)
        d.coeffs = coeffs
        return d

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return QDivisor(out)

    def __mul__(self, scalar):
        scalar = _rational(scalar)
        return QDivisor({k: v * scalar for k, v in self.coeffs.items()})

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def __eq__(self, other):
        return isinstance(other, QDivisor) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def get(self, label):
        return self.coeffs.get(label, 0)

    def is_integral(self):
        return all(v.denominator == 1 for v in self.coeffs.values())

    def floor(self):
        """Label-wise floor; valid for squarefree defining forms."""
        return QDivisor({k: v.numerator // v.denominator for k, v in self.coeffs.items()})

    def format(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            parts.append(f"{self.coeffs[k]} {k}")
        return " + ".join(parts)

    def __repr__(self):
        return f"QDivisor({self.format()})"


# ---------------------------------------------------------------------------
# function field elements


class FunctionFieldElement(NamedTuple):
    """num / prod(forms^exp); den kept factored by form label."""

    num: MPoly
    den: tuple  # sorted tuple of (label, positive exponent)

    def __mul__(self, other):
        d = dict(self.den)
        for k, e in other.den:
            d[k] = d.get(k, 0) + e
        return FunctionFieldElement(self.num * other.num, tuple(sorted(d.items())))

    def __pow__(self, k):
        num = self.num**k
        den = tuple(sorted((l, e * k) for l, e in self.den))
        return FunctionFieldElement(num, den)

    def normalized(self):
        return FunctionFieldElement(self.num.content_normalized(), self.den)

    def is_one(self):
        return not self.den and self.num.is_term() and self.num.total_degree() == 0


def ffe(num, den=()):
    return FunctionFieldElement(num, tuple(sorted((l, e) for l, e in den if e)))


# ---------------------------------------------------------------------------
# backends


class Variety:
    """What the pipelines need of a base variety; shared by the backends.

    A backend holds its coordinates and a table of prime divisor labels
    with their defining forms.  ``_sections(d)`` builds the tuple of
    sections of an integral divisor from the backend's
    ``_free_forms(degree, d)``; a base whose sections are not split that
    way, such as ``PointBase``, overrides ``_sections(d)`` instead.  A
    backend also implements ``_is_basepoint_free(d)`` for integral
    divisors (the module functions ``sections`` and ``is_basepoint_free``
    check integrality and call the two), ``bigness(div)`` giving the
    (verdict, detail) pair of the validity report,
    ``invariantizing_section(d)`` for the torus shortcut, and
    ``function_field_generators()``.
    """

    # prime divisors with no defining form, which the section split skips
    exceptional = ()

    def __init__(self, nvars, coordinates):
        coordinates = tuple(coordinates)
        if len(coordinates) != nvars:
            raise ValueError(
                f"the {self.name} base needs {nvars} coordinate names, "
                f"got {len(coordinates)}: {' '.join(coordinates)}"
            )
        repeated = sorted({c for c in coordinates if coordinates.count(c) > 1})
        if repeated:
            raise ValueError(f"coordinate names must be distinct; repeated: {' '.join(repeated)}")
        self.nvars = nvars
        self.coordinates = coordinates
        self._forms = {}
        self._form_powers = {}  # label -> {exponent: power of the form}
        self._hyperplanes = tuple(f"coord:{c}" for c in self.coordinates)
        self._atoms = None

    def register_divisor(self, label, form: MPoly):
        if not form.is_homogeneous() or not form:
            raise ValueError(f"defining form of {label} must be homogeneous and nonzero")
        form = form.content_normalized()
        if label in self._hyperplanes:
            i = self._hyperplanes.index(label)
            if form != MPoly.variable(self.nvars, i):
                raise ValueError(
                    f"{label} is the hyperplane {self.coordinates[i]} = 0; "
                    f"its defining form must be {self.coordinates[i]}"
                )
        if label in self._forms or label in self.exceptional:
            raise ValueError(f"{label} is already a prime divisor of the {self.name} base")
        self._forms[label] = form
        self._atoms = None

    def forms(self):
        return dict(self._forms)

    def has_label(self, label):
        """Whether a divisor on this variety may name the prime divisor label."""
        return label in self._forms

    def form(self, label):
        return self._forms[label]

    def form_power(self, label, k):
        """The defining form of the label to the power k, computed once."""
        powers = self._form_powers.setdefault(label, {})
        power = powers.get(k)
        if power is None:
            powers[k] = power = self._forms[label] ** k
        return power

    # exponent vectors over the atoms: the coordinate hyperplanes, then the
    # non-monomial defining forms in label order

    @property
    def atoms(self):
        if self._atoms is None:
            self._atoms = self._hyperplanes + tuple(
                label for label in sorted(self._forms) if not self._forms[label].is_term()
            )
        return self._atoms

    def coordinate_label(self, i):
        """Label of the hyperplane of coordinate i, registered on first use."""
        label = self.atoms[i]
        if label not in self._forms:
            self.register_divisor(label, MPoly.variable(self.nvars, i))
        return label

    def label_exponents(self, label):
        """Exponent vector of a prime divisor label over the atoms."""
        form = self._forms[label]
        vec = [0] * len(self.atoms)
        if form.is_term():
            vec[: self.nvars] = form.leading()[0]
        else:
            vec[self.atoms.index(label)] = 1
        return vec

    def exponents(self, section):
        """(exponent vector over the atoms, residual numerator) of a section.

        Subtracts the denominator labels and divides the non-monomial forms
        out of the numerator in label order; what is left is the residual.
        Each coordinate gets its least exponent over the residual's terms,
        so the vector is the divisor of the section when the residual is a
        term.
        """
        num = section.num
        if not num:
            raise ZeroDivisionError("the zero section has no divisor")
        atoms = self.atoms
        vec = [0] * len(atoms)
        for label, e in section.den:
            for i, k in enumerate(self.label_exponents(label)):
                vec[i] -= e * k
        for i in range(self.nvars, len(atoms)):
            form = self._forms[atoms[i]]
            while (q := num.divide_exact(form)) is not None:
                num = q
                vec[i] += 1
        for i in range(self.nvars):
            vec[i] += min(e[i] for e in num.terms)
        return vec, num

    def from_exponents(self, vec):
        """The section with the exponent vector over the atoms."""
        n = self.nvars
        num = MPoly.monomial(n, [max(e, 0) for e in vec[:n]])
        den = [(self.coordinate_label(i), -e) for i, e in enumerate(vec[:n]) if e < 0]
        for label, e in zip(self.atoms[n:], vec[n:]):
            if e > 0:
                num = num * self.form_power(label, e)
            else:
                den.append((label, -e))
        return ffe(num, den)

    def one(self):
        return ffe(MPoly.constant(self.nvars, 1))

    def _split(self, coeffs):
        """(denominator, forced factor, free degree) of integral coefficients.

        A positive coefficient is a power of its form in the denominator and
        a negative one forces its form into every numerator.  The numerator
        degree matches the denominator, so the free factor gets what the
        forced factor leaves of it.
        """
        forced = MPoly.constant(self.nvars, 1)
        den = []
        den_deg = 0
        for l, c in coeffs:
            if l in self.exceptional:
                continue
            f = self.form(l)
            c = int(c)
            if c > 0:
                den.append((l, c))
                den_deg += c * f.total_degree()
            else:
                forced = forced * f ** (-c)
        return den, forced, den_deg - forced.total_degree()

    def _sections(self, d):
        den, forced, free_deg = self._split(d.coeffs.items())
        if free_deg < 0:
            return ()
        return tuple(ffe(g * forced, den) for g in self._free_forms(free_deg, d))


class PointBase(Variety):
    """Y = a point; the only divisor is zero, sections are constants."""

    name = "point"

    def __init__(self):
        super().__init__(0, ())

    def function_field_generators(self):
        return ()

    def _sections(self, d):
        if any(v < 0 for v in d.coeffs.values()):
            return ()
        return (self.one(),)

    def _is_basepoint_free(self, d):
        return all(v >= 0 for v in d.coeffs.values())

    def bigness(self, div):
        return ("pass", "base is a point")

    def invariantizing_section(self, d):
        return self.one()


class ProjectiveSpace(Variety):
    """P^n with homogeneous coordinates; prime divisors are form labels."""

    name = "projective-space"

    def __init__(self, n, coordinates=None):
        if n < 1:
            raise ValueError(
                "the projective-space base needs dim at least 1 (two coordinates), "
                f"got {n}; for a point use backend = point"
            )
        super().__init__(
            n + 1, coordinates or tuple("xyzwvuts"[i] for i in range(n + 1))
        )
        self.n = n

    def function_field_generators(self):
        """x_i / x_n as (numerator index, denominator index) pairs."""
        return tuple((i, self.n) for i in range(self.n))

    def divisor_degree(self, d: QDivisor):
        return sum(c * self._forms[l].total_degree() for l, c in d.coeffs.items())

    def _free_forms(self, degree, d):
        return [MPoly.monomial(self.nvars, e) for e in monomials_of_degree(self.nvars, degree)]

    def _is_basepoint_free(self, d):
        # the degree of d is the free degree of ``_split``: there is a
        # section exactly when it is not negative
        if self.divisor_degree(d) < 0:
            return False
        # every numerator carries the forced factor from the negative
        # coefficients; the residual monomials of a full degree have no
        # common projective zero, so the base locus is exactly the zero
        # set of that common factor
        return all(self.form(l).total_degree() == 0 for l, c in d.coeffs.items() if c < 0)

    def bigness(self, div):
        deg = self.divisor_degree(div)
        if deg > 0:
            return ("pass", f"degree {deg} > 0")
        return ("fail", f"degree {deg} <= 0")

    def invariantizing_section(self, d):
        """A section s with D + Div(s) supported on torus-invariant divisors."""
        moving = []
        for l, c in d.coeffs.items():
            if self.form(l).is_term():  # monomial forms are the invariant ones
                continue
            if c.denominator != 1:
                raise NotTMoveable(
                    f"non-integral coefficient {c} on non-invariant divisor {l}"
                )
            moving.append((l, c))
        if not moving:
            return self.one()
        den, forced, deg = self._split(moving)
        if deg < 0:
            raise NotTMoveable("negative degree on the non-invariant part")
        free = MPoly.monomial(self.nvars, _balanced_monomial(self.nvars, deg))
        return ffe(free * forced, den)


class BlowupOfP2(Variety):
    """Blow-up of P^2 in four points in general position (degree-5 del Pezzo).

    Labels: H (a line with declared form, through none of the points),
    E1..E4 (exceptional), E{ij} (strict transforms of the lines through
    point pairs).  These ten curves are the negative curves, with the
    classes Ei and H - Ei - Ej; any other form's class is read off its
    multiplicities at the points.
    """

    name = "blowup-p2"

    def __init__(self, points, h_form: MPoly, coordinates=("x0", "x1", "x2")):
        if len(points) != 4:
            raise UnsupportedBackend("only the four-point blow-up is supported")
        super().__init__(3, coordinates)
        # an integral coordinate is an int, so the point tests and Taylor
        # shifts stay in integer arithmetic
        self.points = tuple(tuple(_rational(x) for x in p) for p in points)
        _check_general_position(self.points)
        # the classes of the ten negative curves now, any other on first
        # use; register_divisor never changes a registered form
        self._class_vectors = {
            f"E{i}": tuple(int(k == i) for k in range(5)) for i in range(1, 5)
        }
        self._classes = {}
        self._bases = {}  # (degree, orders at the points) -> free forms
        self.register_divisor("H", h_form)
        # class_vector holds -multiplicity, and the classes need it anyway
        for p, m in zip(self.points, self.class_vector("H")[1:]):
            if m:
                raise ValueError(f"H passes through the blow-up point {_format_point(p)}")
        self.exceptional = tuple(f"E{i}" for i in range(1, 5))
        curves = [self._class_vectors[label] for label in self.exceptional]
        for i, j in combinations(range(4), 2):
            label = f"E{i + 1}{j + 1}"
            self.register_divisor(label, self._line_through(self.points[i], self.points[j]))
            # H - Ei - Ej: general position puts no third point on the line
            self._class_vectors[label] = (1, *(-int(k in (i, j)) for k in range(4)))
            curves.append(self._class_vectors[label])
        self._negative_curves = tuple(curves)

    def _line_through(self, p, q):
        # coefficients of the line = cross product of the two points
        a, b, c = _cross(p, q)
        return MPoly(3, {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c})

    def has_label(self, label):
        return label in self.exceptional or super().has_label(label)

    def function_field_generators(self):
        """E23 / E12 and E13 / E12 as pairs of atom indices: the sides of
        the triangle through the first three points over one of them."""
        e23, e13, e12 = (self.label_exponents(l).index(1) for l in ("E23", "E13", "E12"))
        return ((e23, e12), (e13, e12))

    def class_vector(self, label):
        """Class in the basis (H, E1..E4), as an integer 5-tuple."""
        cached = self._class_vectors.get(label)
        if cached is not None:
            return cached
        form = self._forms.get(label)
        if form is None:
            raise KeyError(label)
        d = form.total_degree()
        mults = [multiplicity_at(form, p) for p in self.points]
        self._class_vectors[label] = vec = (d, *(-m for m in mults))
        return vec

    @staticmethod
    def intersect(c1, c2):
        return c1[0] * c2[0] - sum(a * b for a, b in zip(c1[1:], c2[1:]))

    def divisor_class(self, d: QDivisor):
        out = [0] * 5
        for l, c in d.coeffs.items():
            for k, v in enumerate(self.class_vector(l)):
                out[k] += c * v
        return tuple(out)

    def class_of(self, d: QDivisor):
        """``divisor_class(d)``, computed once per divisor."""
        if d not in self._classes:
            self._classes[d] = self.divisor_class(d)
        return self._classes[d]

    def negative_curve_classes(self):
        """The classes of E1..E4, then of E12, E13, E14, E23, E24, E34."""
        return self._negative_curves

    def _free_forms(self, degree, d):
        """Forms of the degree vanishing at the four points to the orders d
        asks, solved once per degree and orders."""
        # the orders of the denominator, less those of the forced factor and
        # the exceptional coefficients; class_vector holds -multiplicity
        req = [0, 0, 0, 0]
        for l, c in d.coeffs.items():
            c = int(c)
            for i, m in enumerate(self.class_vector(l)[1:]):
                req[i] -= c * m
        key = (degree, *req)
        if key not in self._bases:
            monos = monomials_of_degree(3, degree)
            rows = []
            for p, m in zip(self.points, req):
                # condition: all Taylor coefficients of total degree < m
                # vanish, so the monomials are expanded to that order only
                if m > 0:
                    rows.extend(taylor_rows([MPoly.monomial(3, e) for e in monos], p, m))
            self._bases[key] = tuple(
                MPoly(3, dict(zip(monos, vec))).content_normalized()
                for vec in rational_kernel(rows, len(monos))
            )
        # a copy, so no caller can change the stored space
        return list(self._bases[key])

    def _is_basepoint_free(self, d):
        cls = self.class_of(d)
        if cls[0] < 0:
            return False
        return all(self.intersect(cls, c) >= 0 for c in self.negative_curve_classes())

    def bigness(self, div):
        cls = self.divisor_class(div)
        # H is nef and big, so a big class meets it positively
        if cls[0] <= 0:
            return ("fail", f"D.H = {cls[0]} <= 0")
        self_int = self.intersect(cls, cls)
        anti_k = (3, -1, -1, -1, -1)
        if self_int > 0 and self.intersect(cls, anti_k) > 0:
            return ("pass", f"self-intersection {self_int} > 0")
        return ("UNVERIFIABLE", "no sufficient bigness criterion applies")

    def invariantizing_section(self, d):
        raise UnsupportedBackend("the blowup-p2 base has no torus action")


def _cross(p, q):
    return (
        p[1] * q[2] - p[2] * q[1],
        p[2] * q[0] - p[0] * q[2],
        p[0] * q[1] - p[1] * q[0],
    )


def _check_general_position(points):
    """Raise ValueError unless the points are distinct, no three on a line."""
    for p in points:
        if len(p) != 3:
            raise ValueError(f"blow-up point {_format_point(p)} must have 3 coordinates")
        if not any(p):
            raise ValueError(f"blow-up point {_format_point(p)} is zero")
    for p, q in combinations(points, 2):
        if not any(_cross(p, q)):
            raise ValueError(
                f"blow-up points {_format_point(p)} and {_format_point(q)} are the same point"
            )
    for p, q, r in combinations(points, 3):
        if sum(a * b for a, b in zip(_cross(p, q), r)) == 0:
            raise ValueError(
                f"blow-up points {_format_point(p)}, {_format_point(q)} and "
                f"{_format_point(r)} are collinear"
            )


def _format_point(p):
    return "(" + ", ".join(str(x) for x in p) + ")"


def _balanced_monomial(nvars, degree):
    """Most balanced monomial exponent of the degree; lex-largest on ties."""
    best = None
    for e in monomials_of_degree(nvars, degree):
        key = (tuple(sorted(e, reverse=True)), tuple(-x for x in e))
        if best is None or key < best[0]:
            best = (key, e)
    return best[1]


# ---------------------------------------------------------------------------
# sections and base point freeness


def sections(y, d: QDivisor) -> tuple:
    if not d.is_integral():
        raise NonIntegralDivisor(d.format())
    return y._sections(d)


def sections_of_floor(y, d: QDivisor) -> tuple:
    """Sections of the floor; the H^0 of a rational divisor."""
    return sections(y, d.floor())


def is_basepoint_free(y, d: QDivisor) -> bool:
    if not d.is_integral():
        raise NonIntegralDivisor(d.format())
    return y._is_basepoint_free(d)


# ---------------------------------------------------------------------------
# span tests on section elements


def common_denominator(elements):
    """The label-wise largest denominator exponents of the sections, as a
    dict {label: exponent}."""
    common = {}
    for e in elements:
        for l, k in e.den:
            if k > common.get(l, 0):
                common[l] = k
    return common


def numerator_vectors(y, elements, den):
    """The numerators of the elements over the factored denominator
    ``den``, a dict {label: exponent} that covers each element's own, as
    sparse integer rows {monomial: coefficient}, each built when it is
    read.

    A row is scaled by the lcm of its coefficient denominators; sections
    are defined up to a scalar, so no span changes.  It may be the
    numerator's own dict, so no reader changes a row in place.
    """
    for e in elements:
        num = e.num
        own = dict(e.den)
        for l, k in den.items():
            deficit = k - own.pop(l, 0)
            if deficit > 0:
                num = num * y.form_power(l, deficit)
            elif deficit < 0:
                own[l] = k - deficit  # the element's exponent, not covered
        if own:
            l, k = min(own.items())
            raise ValueError(f"the denominator {l}^{k} of a section exceeds the common one")
        terms = num.terms
        scale = lcm(*(c.denominator for c in terms.values()))
        if scale == 1:  # every coefficient an int
            yield terms
        else:
            yield {ex: c.numerator * (scale // c.denominator) for ex, c in terms.items()}


def _reduce_sparse(echelon, v):
    """Reduce the sparse integer row v against the echelon {pivot: row}.

    The pivot of a row is its largest monomial.  The elimination is
    ``intlinalg.reduce_row``'s on sparse rows: against the row r with
    pivot p, v <- r[p] v - v[p] r (both factors divided by their gcd
    first), then v is divided by its content.  Returns (pivot, reduced
    row) at the first monomial that is no row's pivot, or None when v
    reduces to zero.
    """
    while v:
        p = max(v)
        r = echelon.get(p)
        if r is None:
            return p, v
        g = gcd(r[p], v[p])
        a, b = r[p] // g, v[p] // g
        v = {ex: a * c for ex, c in v.items()}
        for ex, c in r.items():
            s = v.get(ex, 0) - b * c
            if s:
                v[ex] = s
            else:
                del v[ex]
        g = gcd(*v.values())
        if g > 1:
            v = {ex: c // g for ex, c in v.items()}
    return None


def in_span(y, target, elements, den=None) -> bool:
    """Whether target lies in the rational span of the elements.

    The elements may be any iterable; they are read one at a time and
    each is reduced into one echelon as it arrives.  The target's row is
    kept reduced against that echelon, so the test returns True as soon
    as it reduces to zero and reads no further element.  Every row is a
    numerator over one factored denominator: ``den``, a dict {label:
    exponent} that must cover the target's and every element's, or else
    the common denominator of the target and the elements, which are then
    read up front.  A larger denominator multiplies every row by the same
    nonzero polynomial, an injective linear map, so the answer does not
    depend on it.
    """
    if den is None:
        elements = list(elements)
        den = common_denominator(elements + [target])
    rows = numerator_vectors(y, chain((target,), elements), den)
    echelon = {}
    reduced = _reduce_sparse(echelon, next(rows))
    if reduced is None:
        return True
    for row in rows:
        row = _reduce_sparse(echelon, row)
        if row is None:
            continue
        p, r = row
        echelon[p] = r
        if p == reduced[0]:
            # the target's leading monomial is now a pivot: reduce on
            reduced = _reduce_sparse(echelon, reduced[1])
            if reduced is None:
                return True
    return False
