"""Polyhedral divisors: evaluation, linearity domains, restriction, checks.

A polyhedral divisor assigns to finitely many prime divisors on the base
variety a polyhedron in N_Q with common tail cone dual to the weight
cone; evaluating at a weight u takes the support function of each
coefficient.
"""

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .polyhedra import (
    PolyhedralSubdivision,
    QCone,
    common_refinement,
    dot,
    dual_cone,
    hyperplane_subdivision,
    mu,
    normal_fan,
    point_polyhedron,
    primitive,
    trivial_subdivision,
)
from .varieties import QDivisor, is_basepoint_free


class WeightOutsideCone(ValueError):
    pass


class NotSubcone(ValueError):
    pass


class IterationLimitExceeded(RuntimeError):
    pass


class PDivisor:
    """Weight cone, coefficient polyhedra, and the base variety."""

    def __init__(self, variety, weight_cone: QCone, coefficients):
        self.variety = variety
        self.weight_cone = weight_cone
        self.tail = dual_cone(weight_cone)
        self.coefficients = dict(coefficients)
        # label -> (L, vertices times L): integer vertices over one positive
        # common denominator, so support functions are integer dot products
        self._scaled_vertices = {}
        for label, poly in self.coefficients.items():
            if poly.tail.rays != self.tail.rays:
                raise ValueError(
                    f"coefficient of {label} has tail {poly.tail.rays}, "
                    f"expected {self.tail.rays}"
                )
            scale = lcm(*(x.denominator for v in poly.vertices for x in v))
            self._scaled_vertices[label] = (
                scale,
                [[x.numerator * (scale // x.denominator) for x in v] for v in poly.vertices],
            )

    def evaluate(self, u) -> QDivisor:
        if not self.weight_cone.contains(u):
            raise WeightOutsideCone(f"{tuple(u)} is not in the weight cone")
        return QDivisor(
            {
                label: Fraction(min([dot(v, u) for v in scaled]), scale)
                for label, (scale, scaled) in self._scaled_vertices.items()
            }
        )


class LinearityDomain(NamedTuple):
    """Cells of the weight cone on which evaluation is linear."""

    subdivision: PolyhedralSubdivision
    minimizers: dict  # cell -> {label: vertex achieving the min on the cell}

    @property
    def cells(self):
        return self.subdivision.maximal_cells

    def rays(self):
        return self.subdivision.all_rays()


def _interior_sample(cell: QCone):
    return tuple(sum(r[i] for r in cell.rays) for i in range(cell.dim))


def linearity_subdivision(d: PDivisor) -> LinearityDomain:
    multi = [
        d.coefficients[label]
        for label in sorted(d.coefficients)
        if len(d.coefficients[label].vertices) > 1
    ]
    if not multi:
        sub = trivial_subdivision(d.weight_cone)
    elif (
        all(len(p.vertices) == 2 for p in multi)
        and d.weight_cone.is_pointed()
        and d.weight_cone.is_full_dim()
    ):
        # two-vertex coefficients switch along single hyperplanes
        planes = [
            primitive(tuple(a - b for a, b in zip(p.vertices[0], p.vertices[1])))
            for p in multi
        ]
        sub = hyperplane_subdivision(d.weight_cone, planes)
    else:
        fans = [normal_fan(p) for p in multi]
        sub = common_refinement(fans, d.weight_cone)
    minimizers = {}
    for cell in sub.maximal_cells:
        sample = _interior_sample(cell)
        per_label = {}
        for label, poly in d.coefficients.items():
            # rank by the integer dots of the scaled vertices, ties by vertex
            _, scaled = d._scaled_vertices[label]
            _, best = min(
                zip(scaled, poly.vertices), key=lambda p: (dot(p[0], sample), p[1])
            )
            per_label[label] = best
        minimizers[cell] = per_label
    return LinearityDomain(sub, minimizers)


def restrict(d: PDivisor, c: QCone) -> PDivisor:
    for r in c.rays:
        if not d.weight_cone.contains(r):
            raise NotSubcone(f"ray {r} is outside the weight cone")
    new_tail = dual_cone(c)
    tail_poly = point_polyhedron(tuple([0] * c.dim), new_tail)
    coeffs = {
        label: poly + tail_poly for label, poly in d.coefficients.items()
    }
    return PDivisor(d.variety, c, coeffs)


# ---------------------------------------------------------------------------
# validity report


class ValidationCheck(NamedTuple):
    name: str
    verdict: str  # "pass", "fail", or "UNVERIFIABLE"
    detail: str = ""


class ValidationReport(NamedTuple):
    checks: tuple

    @property
    def ok(self):
        return all(c.verdict != "fail" for c in self.checks)

    @property
    def unverifiable(self):
        return tuple(c for c in self.checks if c.verdict == "UNVERIFIABLE")

    def format(self):
        lines = []
        for c in self.checks:
            tail = f"  ({c.detail})" if c.detail else ""
            lines.append(f"{c.verdict:12s} {c.name}{tail}")
        return "\n".join(lines)


def _semiample_at_ray(d: PDivisor, ray, cap):
    base = d.evaluate(ray)
    step = mu(base.coeffs.values())
    k = step
    while k <= cap * step:
        if is_basepoint_free(d.variety, base * k):
            return k
        k += step
    return None


def validate(d: PDivisor, max_iterations=64) -> ValidationReport:
    """Semiampleness at subdivision rays, bigness at cell interiors."""
    domain = linearity_subdivision(d)
    checks = []
    for ray in domain.rays():
        k = _semiample_at_ray(d, ray, max_iterations)
        if k is None:
            checks.append(
                ValidationCheck(
                    f"semiample at ray {ray}",
                    "fail",
                    f"no base point free multiple up to cap {max_iterations}",
                )
            )
        else:
            checks.append(
                ValidationCheck(f"semiample at ray {ray}", "pass", f"k = {k}")
            )
    checks.extend(bigness_checks(d, domain))
    return ValidationReport(tuple(checks))


def bigness_checks(d: PDivisor, domain: LinearityDomain):
    """Bigness of the divisor at the interior sample of each cell."""
    checks = []
    for cell in domain.cells:
        div = d.evaluate(_interior_sample(cell))
        verdict, detail = d.variety.bigness(div * mu(div.coeffs.values()))
        checks.append(ValidationCheck(f"big on cell {cell.rays}", verdict, detail))
    return checks
