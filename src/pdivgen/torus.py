"""Exploiting a torus action on the base to compute generators.

When the base carries a torus action and the p-divisor is locally
T-moveable, each linearity cell can be twisted by invariantizing
sections so that its restriction becomes a divisor supported on
invariant prime divisors.  Over a point base this turns the whole
computation into a Hilbert basis problem for the upgraded cone.
"""

from fractions import Fraction
from typing import NamedTuple

from .intlinalg import invert_unimodular, primitive
from .mpoly import MPoly
from .pdivisor import PDivisor, linearity_subdivision
from .polyhedra import (
    QCone,
    cone_from_rays,
    dual_cone,
    hilbert_basis,
    unimodular_triangulation,
)
from .varieties import (
    FunctionFieldElement,
    NotTMoveable,
    ProjectiveSpace,
    UnsupportedBackend,
    ffe,
)
from .engine import GeneratorSet, GradedElement


class DivisorialFanRecord(NamedTuple):
    """Combinatorial data of the quotient description of the base.

    For a toric base the record holds the fan rays, ray i for the i-th
    homogeneous coordinate, and for every basis direction of the torus
    lattice a coordinate character as a function field element.
    """

    rays: tuple
    character_functions: tuple


def standard_p2_fan_record(y: ProjectiveSpace) -> DivisorialFanRecord:
    """The standard torus action on the projective plane."""
    if y.n != 2:
        raise UnsupportedBackend("standard record only provided for the plane")
    cz = y.coordinate_label(2)
    x_over_z = ffe(MPoly.variable(3, 0), [(cz, 1)])
    y_over_z = ffe(MPoly.variable(3, 1), [(cz, 1)])
    return DivisorialFanRecord(
        rays=((1, 0), (0, 1), (-1, -1)),
        character_functions=(x_over_z, y_over_z),
    )


# ---------------------------------------------------------------------------
# the per-cell twist


def invariantize_cell(d: PDivisor, cell: QCone, record: DivisorialFanRecord):
    """((fan ray, height vector w) per fan ray, {cell ray: twist section},
    inverse of the matrix of the sorted primitive cell rays)."""
    y = d.variety
    rays = tuple(sorted(primitive(r) for r in cell.rays))
    n = cell.dim
    # invert_unimodular refuses a matrix that is not square or not unimodular,
    # but inverts the empty one, so the zero cone is caught by the count
    try:
        inv = invert_unimodular(rays)
    except ValueError:
        inv = None
    if inv is None or len(rays) != n:
        raise ValueError("invariantize_cell needs a unimodular simplicial cell")
    twists = {}
    per_ray_coords = []
    for rho in rays:
        div = d.evaluate(rho)
        s = y.invariantizing_section(div)
        twists[rho] = s
        # div(s) + D(rho) over the atoms; form labels count as prime, which
        # is exact as long as the p-divisor uses the same labels
        total = y.exponents(s)[0]
        for label, c in div.coeffs.items():
            total = [a + c * b for a, b in zip(total, y.label_exponents(label))]
        moving = {l: c for l, c in zip(y.atoms[y.nvars :], total[y.nvars :]) if c}
        if moving:
            raise NotTMoveable(
                f"non-invariant part survives the twist at ray {rho}: {moving}"
            )
        per_ray_coords.append(total[: y.nvars])
    # linear form w_r per fan ray: <w_r, rho_j> = coefficient of D_r at rho_j
    heights = []
    for coord_idx, r in enumerate(record.rays):
        values = [per_ray_coords[j][coord_idx] for j in range(n)]
        w = tuple(sum(inv[i][j] * values[j] for j in range(n)) for i in range(n))
        heights.append((tuple(r), w))
    return tuple(heights), twists, inv


def upgrade(heights, cell: QCone, record: DivisorialFanRecord):
    """The upgraded cone over the quotient; the weight data on a point base.

    Generators: the dual of the cell at torus height zero, and for each
    (fan ray r, height vector w) of ``invariantize_cell`` the point w at
    the height r.  The coefficient of the fan ray's divisor is the
    polyhedron w + dual(cell), whose tail the first generators span.
    """
    n = cell.dim
    rk = len(record.rays[0])
    gens = []
    for c in dual_cone(cell).rays:
        gens.append(tuple(c) + tuple([0] * rk))
    for r, w in heights:
        gens.append(primitive(w + r))
    return cone_from_rays(gens, n + rk)


def _power(y, elem: FunctionFieldElement, k: int) -> FunctionFieldElement:
    if k >= 0:
        return elem**k
    return _invert(y, elem) ** (-k)


def _invert(y, elem: FunctionFieldElement) -> FunctionFieldElement:
    """Invert a scalar times a product of atoms."""
    vec, rest = y.exponents(elem)
    if not rest.is_term():
        raise ValueError("can only invert a product of atoms")
    inv = y.from_exponents([-e for e in vec])
    return ffe(inv.num * Fraction(1, rest.leading()[1]), inv.den)


def downgrade_generators(y, weights, twists, inv, record):
    """Map upgraded lattice weights back to graded elements on Y.

    ``twists`` maps the sorted primitive rays of the cell to their twist
    sections and ``inv`` is the inverse of their matrix, as
    ``invariantize_cell`` returns both.
    """
    n = len(twists)
    out = []
    for w in weights:
        wm, wp = tuple(w[:n]), tuple(w[n:])
        sec = ffe(MPoly.constant(y.nvars, 1))
        for chf, e in zip(record.character_functions, wp):
            if e:
                sec = sec * _power(y, chf, e)
        # coordinates of the M-weight in the ray basis select twist powers
        u_rho = [sum(wm[j] * inv[j][i] for j in range(n)) for i in range(n)]
        for s, c in zip(twists.values(), u_rho):
            if c and not s.is_one():
                sec = sec * _power(y, s, c)
        out.append(GradedElement(sec.normalized(), wm))
    return out


def run_torus(y, d: PDivisor, record: DivisorialFanRecord, domain=None):
    """Per-cell upgrade pipeline; cells contribute independent lists.

    ``domain`` is the linearity subdivision of d when the caller has it.
    """
    if domain is None:
        domain = linearity_subdivision(d)
    elements = []
    report = []
    for cell in domain.cells:
        # a unimodular cell is its own only piece
        for piece in unimodular_triangulation(cell).cells:
            heights, twists, inv = invariantize_cell(d, piece, record)
            sigma = upgrade(heights, piece, record)
            hb = hilbert_basis(dual_cone(sigma))
            # distinct Hilbert basis elements of one M-weight differ in their
            # character exponents, so no two generators coincide
            gens = downgrade_generators(y, hb, twists, inv, record)
            elements.extend(gens)
            report.append(f"cell {piece.rays}: {len(gens)} generators")
    report.append(f"total generators: {len(elements)}")
    return GeneratorSet(
        tuple(elements), "SaturatedToric", report=tuple(report)
    )
