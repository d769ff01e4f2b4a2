"""Polyhedral divisors: evaluation, linearity domains, restriction, checks.

A polyhedral divisor assigns to finitely many prime divisors on the base
variety a polyhedron in N_Q with common tail cone dual to the weight
cone; evaluating at a weight u takes the support function of each
coefficient.
"""

from fractions import Fraction
from math import lcm
from operator import mul
from typing import NamedTuple

from .polyhedra import (
    PolyhedralSubdivision,
    QCone,
    common_refinement,
    dual_cone,
    hyperplane_subdivision,
    mu,
    primitive,
    ray_sum,
    tailed_polyhedron,
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
        # the cone test rejects a weight of another width, so the products
        # need no width check of their own
        values = {}
        for label, (scale, scaled) in self._scaled_vertices.items():
            value = min([sum(map(mul, v, u)) for v in scaled])
            if value:
                if scale != 1:
                    value = Fraction(value, scale)
                values[label] = value.numerator if value.denominator == 1 else value
        return QDivisor._of(values)


def linearity_subdivision(d: PDivisor) -> PolyhedralSubdivision:
    """Cells of the weight cone on which evaluation is linear."""
    multi = [label for label in sorted(d.coefficients) if len(d.coefficients[label].vertices) > 1]
    if not multi:
        return PolyhedralSubdivision((d.weight_cone,))
    if (
        all(len(d.coefficients[label].vertices) == 2 for label in multi)
        and d.weight_cone.is_pointed()
        and d.weight_cone.is_full_dim()
    ):
        # two-vertex coefficients switch along single hyperplanes, read
        # off the integer vertices
        planes = [
            primitive([a - b for a, b in zip(*d._scaled_vertices[label][1])])
            for label in multi
        ]
        return hyperplane_subdivision(d.weight_cone, planes)
    return common_refinement([d.coefficients[label] for label in multi], d.weight_cone)


def restrict(d: PDivisor, c: QCone) -> PDivisor:
    """D|c on a subcone c of the weight cone: each coefficient with tail
    dual(c), which contains its old tail."""
    for r in c.rays:
        if not d.weight_cone.contains(r):
            raise NotSubcone(f"ray {r} is outside the weight cone")
    tail = dual_cone(c)
    coeffs = {
        label: tailed_polyhedron(poly.vertices, tail)
        for label, poly in d.coefficients.items()
    }
    return PDivisor(d.variety, c, coeffs)


def find_k_rho(d: PDivisor, rho, max_iterations=64):
    """Smallest k <= max_iterations with D(k*rho) integral and base point free.

    Returns (k, D(rho)).  Support functions are positively homogeneous,
    so D(k*rho) = k*D(rho): one evaluation serves every multiple, and
    only the multiples of its denominator lcm are integral.
    """
    base = d.evaluate(rho)
    step = mu(base.coeffs.values())
    for k in range(step, max_iterations + 1, step):
        if is_basepoint_free(d.variety, base * k):
            return k, base
    raise IterationLimitExceeded(
        f"no integral base point free multiple of {tuple(rho)} up to {max_iterations}"
    )


# ---------------------------------------------------------------------------
# validity report


class ValidationCheck(NamedTuple):
    name: str
    verdict: str  # "pass", "fail", or "UNVERIFIABLE"
    detail: str = ""


def validate(d: PDivisor, max_iterations=64):
    """Checks of semiampleness at subdivision rays, bigness at cell interiors."""
    domain = linearity_subdivision(d)
    checks = []
    for ray in domain.rays():
        try:
            k, _ = find_k_rho(d, ray, max_iterations)
            verdict, detail = "pass", f"k = {k}"
        except IterationLimitExceeded:
            verdict, detail = "fail", f"no base point free multiple up to cap {max_iterations}"
        checks.append(ValidationCheck(f"semiample at ray {ray}", verdict, detail))
    checks.extend(bigness_checks(d, domain))
    return tuple(checks)


def bigness_checks(d: PDivisor, domain: PolyhedralSubdivision):
    """Bigness of the divisor at the sum of the rays of each cell."""
    checks = []
    for cell in domain.cells:
        # unscaled: the degree in a failure detail depends on the scale
        div = d.evaluate(ray_sum(cell))
        verdict, detail = d.variety.bigness(div * mu(div.coeffs.values()))
        checks.append(ValidationCheck(f"big on cell {cell.rays}", verdict, detail))
    return checks
