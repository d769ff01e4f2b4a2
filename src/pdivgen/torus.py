"""Exploiting a torus action on the base to compute generators.

When the base carries a torus action and the p-divisor is locally
T-moveable, each linearity cell can be twisted by invariantizing
sections so that its restriction becomes a divisor supported on
invariant prime divisors.  Over a point base this turns the whole
computation into a Hilbert basis problem for the upgraded cone.
"""

from fractions import Fraction
from typing import NamedTuple

from .intlinalg import det, inverse, primitive
from .mpoly import MPoly
from .pdivisor import PDivisor, linearity_subdivision
from .polyhedra import (
    QCone,
    cone_from_rays,
    dual_cone,
    hilbert_basis,
    tailed_polyhedron,
    unimodular_triangulation,
)
from .varieties import (
    FunctionFieldElement,
    NotTMoveable,
    PointBase,
    ProjectiveSpace,
    UnsupportedBackend,
    ffe,
)
from .engine import GeneratorSet, GradedElement, _dedupe


class UnsupportedBase(ValueError):
    pass


class DivisorialFanRecord(NamedTuple):
    """Combinatorial data of the quotient description of the base.

    For a toric base the record holds the fan rays, the fan ray attached
    to each homogeneous coordinate, and for every basis direction of the
    torus lattice a coordinate character as a function field element.
    """

    base: object  # quotient backend, PointBase for a toric Y
    rays: tuple
    coordinate_rays: tuple  # per backend coordinate: index into rays
    character_functions: tuple

    @property
    def torus_rank(self):
        return len(self.rays[0]) if self.rays else 0


class InvariantRepresentation(NamedTuple):
    """Per-ray coefficient polyhedra of the twisted divisor on a cell."""

    cell: QCone
    ray_coefficients: tuple  # per fan ray: (ray, TailedPolyhedron Delta_r)
    twists: tuple  # per cell ray: (ray, section)


def standard_p2_fan_record(y: ProjectiveSpace) -> DivisorialFanRecord:
    """The standard torus action on the projective plane."""
    if y.n != 2:
        raise UnsupportedBackend("standard record only provided for the plane")
    for i, c in enumerate(y.coordinates):
        label = f"coord:{c}"
        if label not in y.forms():
            y.register_divisor(label, MPoly.variable(3, i))
    cz = f"coord:{y.coordinates[2]}"
    x_over_z = ffe(MPoly.variable(3, 0), [(cz, 1)])
    y_over_z = ffe(MPoly.variable(3, 1), [(cz, 1)])
    return DivisorialFanRecord(
        base=PointBase(),
        rays=((1, 0), (0, 1), (-1, -1)),
        coordinate_rays=(0, 1, 2),
        character_functions=(x_over_z, y_over_z),
    )


# ---------------------------------------------------------------------------
# orders of vanishing at the label level


def _coordinate_orders(y, poly: MPoly):
    """min exponent of each coordinate over the terms of the polynomial."""
    if not poly:
        raise ZeroDivisionError("zero polynomial has no divisor")
    return [min(e[i] for e in poly.terms) for i in range(y.nvars)]


def _form_order(poly: MPoly, form: MPoly):
    k = 0
    while True:
        q = poly.divide_exact(form)
        if q is None:
            return k, poly
        poly = q
        k += 1


def element_divisor(y, s: FunctionFieldElement):
    """Div(s) split into coordinate hyperplanes and non-monomial form labels.

    Returns (coordinate orders, {form label: order}).  Form labels are
    treated as units; this is exact as long as the p-divisor uses the
    same labels.
    """
    num = s.num
    form_orders = {}
    for label in sorted(y.forms()):
        form = y.form(label)
        if form.is_term():
            continue
        k, num = _form_order(num, form)
        if k:
            form_orders[label] = form_orders.get(label, 0) + k
    coords = _coordinate_orders(y, num)
    for label, e in s.den:
        form = y.form(label)
        if form.is_term():
            exps, _ = form.leading()
            for i, k in enumerate(exps):
                coords[i] -= e * k
        else:
            form_orders[label] = form_orders.get(label, 0) - e
    return coords, {k: v for k, v in form_orders.items() if v}


def _expanded_coefficients(y, div):
    """Divisor coefficients split into coordinates and non-monomial labels."""
    coords = [Fraction(0)] * y.nvars
    forms = {}
    for label, c in div.coeffs.items():
        form = y.form(label)
        if form.is_term():
            exps, _ = form.leading()
            for i, k in enumerate(exps):
                coords[i] += c * k
        else:
            forms[label] = forms.get(label, 0) + c
    return coords, {k: v for k, v in forms.items() if v}


# ---------------------------------------------------------------------------
# the per-cell twist


def invariantize_cell(d: PDivisor, cell: QCone, record: DivisorialFanRecord):
    y = d.variety
    rays = tuple(sorted(primitive(r) for r in cell.rays))
    n = cell.dim
    if len(rays) != n or abs(det(rays)) != 1:
        raise ValueError("invariantize_cell needs a unimodular simplicial cell")
    twists = []
    per_ray_coords = []
    for rho in rays:
        div = d.evaluate(rho)
        s = y.invariantizing_section(div)
        twists.append((rho, s))
        coords, forms = _expanded_coefficients(y, div)
        s_coords, s_forms = element_divisor(y, s)
        total_coords = [a + b for a, b in zip(coords, s_coords)]
        total_forms = dict(forms)
        for k, v in s_forms.items():
            total_forms[k] = total_forms.get(k, 0) + v
        if any(total_forms.values()):
            raise NotTMoveable(
                f"non-invariant part survives the twist at ray {rho}: {total_forms}"
            )
        per_ray_coords.append(total_coords)
    # linear form w_r per fan ray: <w_r, rho_j> = coefficient of D_r at rho_j
    inv = inverse(rays)
    tail = dual_cone(cell)
    ray_coeffs = []
    for ray_idx, r in enumerate(record.rays):
        coord_idx = record.coordinate_rays.index(ray_idx)
        values = [per_ray_coords[j][coord_idx] for j in range(n)]
        w = tuple(
            sum(inv[i][j] * Fraction(values[j]) for j in range(n)) for i in range(n)
        )
        delta = tailed_polyhedron([w], tail.rays, n)
        ray_coeffs.append((tuple(r), delta))
    return (
        InvariantRepresentation(cell, tuple(ray_coeffs), tuple(twists)),
        dict(twists),
    )


def upgrade(rep: InvariantRepresentation, cell: QCone, record: DivisorialFanRecord):
    """The upgraded cone over the quotient; the weight data on a point base.

    Generators: the dual of the cell at torus height zero, and each
    coefficient polyhedron placed at the height of its fan ray.
    """
    n = cell.dim
    rk = record.torus_rank
    gens = []
    for c in dual_cone(cell).rays:
        gens.append(tuple(c) + tuple([0] * rk))
    for r, delta in rep.ray_coefficients:
        for v in delta.vertices:
            gens.append(primitive(tuple(v) + tuple(r)))
        for t in delta.tail.rays:
            gens.append(tuple(t) + tuple([0] * rk))
    if not isinstance(record.base, PointBase):
        raise UnsupportedBase("only a point base is supported end to end")
    return cone_from_rays(gens, n + rk)


def _power(y, elem: FunctionFieldElement, k: int) -> FunctionFieldElement:
    if k >= 0:
        return elem**k
    return _invert(y, elem) ** (-k)


def _invert(y, elem: FunctionFieldElement) -> FunctionFieldElement:
    """Invert an element whose numerator is a single term."""
    if not elem.num.is_term():
        raise ValueError("can only invert monomial-numerator elements")
    exps, coeff = elem.num.leading()
    num = MPoly.constant(y.nvars, Fraction(1, 1) / coeff)
    for label, e in elem.den:
        num = num * y.form(label) ** e
    den = {}
    for i, k in enumerate(exps):
        if k:
            label = f"coord:{y.coordinates[i]}"
            if label not in y.forms():
                y.register_divisor(label, MPoly.variable(y.nvars, i))
            den[label] = k
    return ffe(num, den.items())


def downgrade_generators(y, weights, twists, cell_rays, record):
    """Map upgraded lattice weights back to graded elements on Y."""
    rays = tuple(sorted(primitive(r) for r in cell_rays))
    n = len(rays)
    inv = inverse(rays)
    out = []
    for w in weights:
        wm, wp = tuple(w[:n]), tuple(w[n:])
        sec = ffe(MPoly.constant(y.nvars, 1))
        for chf, e in zip(record.character_functions, wp):
            if e:
                sec = sec * _power(y, chf, e)
        # coordinates of the M-weight in the ray basis select twist powers
        u_rho = [
            sum(Fraction(wm[j]) * inv[j][i] for j in range(n)) for i in range(n)
        ]
        for (rho, s), c in zip(sorted(twists.items()), u_rho):
            c = int(c)
            if c and not s.is_one():
                sec = sec * _power(y, s, c)
        out.append(GradedElement(sec.normalized(), wm))
    return out


def run_torus(y, d: PDivisor, record: DivisorialFanRecord, max_iterations=64):
    """Per-cell upgrade pipeline; cells contribute independent lists."""
    domain = linearity_subdivision(d)
    elements = []
    report = []
    for cell in domain.cells:
        if abs(det(cell.rays)) == 1 and len(cell.rays) == cell.dim:
            pieces = [cell]
        else:
            pieces = list(unimodular_triangulation(cell).maximal_cells)
        for piece in pieces:
            rep, twists = invariantize_cell(d, piece, record)
            sigma = upgrade(rep, piece, record)
            hb = hilbert_basis(dual_cone(sigma))
            gens = downgrade_generators(y, hb, twists, piece.rays, record)
            gens = _dedupe(gens)
            elements.extend(gens)
            report.append(f"cell {piece.rays}: {len(gens)} generators")
    report.append(f"total generators: {len(elements)}")
    return GeneratorSet(
        tuple(elements), "SaturatedToric", report=tuple(report)
    )
