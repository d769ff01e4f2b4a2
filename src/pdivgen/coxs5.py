"""Cox ring of the degree five del Pezzo surface.

The surface is the blow-up of the projective plane in four general
points.  Its effective cone is spanned by the classes of the ten
negative curves; a polyhedral divisor on the surface itself, graded by
the class lattice, has the Cox ring as its section algebra.  This
module builds that divisor and feeds it through the general machinery.
"""

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .engine import (
    GeneratorSet,
    GradedElement,
    _nn_decompositions,
    _sorted_elements,
    find_k_rho,
    normalize_or_export,
    reduce_generators,
)
from .intlinalg import primitive
from .mpoly import MPoly
from .pdivisor import PDivisor, linearity_subdivision
from .polyhedra import cone_from_rays, dual_cone, tailed_polyhedron
from .varieties import BlowupOfP2, sections

# columns: classes of the negative curves in the basis (H, E1..E4);
# first the four exceptional curves, then the six line transforms,
# ordered by the pair of points they pass through
POINTS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
CURVE_COLUMNS = (
    (0, 1, 0, 0, 0),
    (0, 0, 1, 0, 0),
    (0, 0, 0, 1, 0),
    (0, 0, 0, 0, 1),
    (1, -1, 0, 0, -1),
    (1, 0, 0, -1, -1),
    (1, 0, -1, 0, -1),
    (1, 0, -1, -1, 0),
    (1, -1, 0, -1, 0),
    (1, -1, -1, 0, 0),
)


def cox_surface() -> BlowupOfP2:
    """The four-point blow-up with a line avoiding all base points."""
    f = MPoly(
        3,
        {
            (1, 0, 0): Fraction(1),
            (0, 1, 0): Fraction(-1),
            (0, 0, 1): Fraction(1),
        },
    )
    return BlowupOfP2(POINTS, f)


def weight_cone() -> "QCone":
    return cone_from_rays(CURVE_COLUMNS, 5)


def build_cox_pdivisor(y=None) -> PDivisor:
    """The polyhedral divisor whose section algebra is the Cox ring.

    The coefficient of H is a shifted dual cone; the coefficients of
    the exceptional curves and the line transforms are segments from
    the origin, so their support functions switch along one hyperplane
    each.
    """
    if y is None:
        y = cox_surface()
    omega = weight_cone()
    tail = dual_cone(omega)
    zero = tuple([0] * 5)

    def seg(v):
        return tailed_polyhedron([zero, v], tail.rays, 5)

    coeffs = {"H": tailed_polyhedron([(1, 0, 0, 0, 0)], tail.rays, 5)}
    for i in range(1, 5):
        coeffs[f"E{i}"] = seg(tuple(1 if k == i else 0 for k in range(5)))
    for i, j in combinations(range(1, 5), 2):
        v = [0] * 5
        v[0] = 1
        v[i] = 1
        v[j] = 1
        coeffs[f"E{i}{j}"] = seg(tuple(v))
    return PDivisor(y, omega, coeffs)


class CoxResult(NamedTuple):
    cells: tuple
    rays: tuple
    ray_classes: dict
    bpf_multiples: dict
    reduced_rays: tuple
    pool: tuple
    generators: GeneratorSet
    presentation: str
    minors_match: bool
    report: tuple


def reduce_rays(y, d: PDivisor, ray_classes):
    """Drop rays whose sections are products from smaller weights.

    ``ray_classes`` maps each ray to the class of the floor of its
    evaluation.  A weight u2 is redundant when u2 = u0 + u1 with both
    summands in the weight cone, the evaluation at u0 principal, and the
    evaluations at u1 and u2 linearly equivalent: multiplication by the
    canonical section of the principal part is onto.
    """
    cls = dict(ray_classes)

    def class_of(u):
        if u not in cls:
            cls[u] = y.divisor_class(d.evaluate(u).floor())
        return cls[u]

    zero_candidates = [c for c in CURVE_COLUMNS if not any(class_of(c))]
    zero_candidates += [
        r for r in ray_classes if not any(class_of(r)) and r not in zero_candidates
    ]
    kept = sorted(ray_classes)
    changed = True
    while changed:
        changed = False
        for u2 in list(kept):
            if u2 in zero_candidates:
                continue
            for z in zero_candidates:
                u1 = tuple(a - b for a, b in zip(u2, z))
                if u1 == u2 or not any(u1):
                    continue
                if not d.weight_cone.contains(u1):
                    continue
                if class_of(u1) != class_of(u2):
                    continue
                kept.remove(u2)
                if z not in kept:
                    kept.append(z)
                if u1 not in kept:
                    kept.append(u1)
                kept.sort()
                changed = True
                break
            if changed:
                break
    return tuple(kept)


def _t_monomial(u, cone, values):
    """Exponents of a monomial in the curve variables with total class u.

    ``cone`` is the cone of the curve columns and ``values`` its facet
    value cache, both shared by every call of one presentation.
    """
    decomps = _nn_decompositions(u, CURVE_COLUMNS, limit=5000, cone=cone, values=values)
    for parts in decomps:
        exps = [0] * len(CURVE_COLUMNS)
        for w in parts:
            exps[CURVE_COLUMNS.index(w)] += 1
        return tuple(exps)
    return None


def _coefficient_poly(elem):
    """The section rewritten as a polynomial in x0, x1, x2 and h.

    Dividing by the form of H is multiplication by h, since h is the
    inverse of that form in the presentation ring.
    """
    h_exp = 0
    for label, e in elem.section.den:
        if label != "H":
            return None
        h_exp += e
    num = elem.section.num
    out = {}
    for exps, c in num.terms.items():
        out[(*exps, h_exp)] = c
    return MPoly(4, out)


def presentation_text(elements):
    names = ["x0", "x1", "x2", "h"]
    lines = [
        "# subalgebra of P = C[x0,x1,x2,h,t0..t9] / (h*(x0-x1+x2) - 1 + toric relations)",
        "# t_i carries the class of the i-th negative curve",
    ]
    cone, values = weight_cone(), {}
    for e in _sorted_elements(elements):
        exps = _t_monomial(e.weight, cone, values)
        poly = _coefficient_poly(e)
        if exps is None or poly is None:
            lines.append(f"# unpresentable element at weight {e.weight}")
            continue
        tpart = " * ".join(
            f"t{i}" if k == 1 else f"t{i}^{k}" for i, k in enumerate(exps) if k
        )
        coeff = poly.format(names)
        if poly.is_term() and poly.terms == {(0, 0, 0, 0): Fraction(1)}:
            lines.append(tpart or "1")
        else:
            lines.append(f"({coeff}) * {tpart}" if tpart else f"({coeff})")
    return "\n".join(lines) + "\n"


def certificate_matrix():
    """Columns of the 3 x 5 matrix whose maximal minors are the
    coefficients of the generators: three unit columns, the all-ones
    column, and the column of the coordinates times h."""
    one = MPoly.constant(4, 1)
    zero = MPoly(4, {})
    h = MPoly.variable(4, 3)
    xs = [MPoly.variable(4, i) * h for i in range(3)]
    return [
        [one, zero, zero],
        [zero, one, zero],
        [zero, zero, one],
        [one, one, one],
        xs,
    ]


def _det3(cols):
    a, b, c = cols
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - b[0] * (a[1] * c[2] - a[2] * c[1])
        + c[0] * (a[1] * b[2] - a[2] * b[1])
    )


def minors_certificate(elements) -> bool:
    """The coefficients of the generators agree, up to sign, with the
    nonzero maximal minors of the certificate matrix."""
    cols = certificate_matrix()
    minors = []
    for triple in combinations(range(5), 3):
        m = _det3([cols[i] for i in triple])
        if m:
            minors.append(m)
    coeffs = []
    for e in elements:
        poly = _coefficient_poly(e)
        if poly is None:
            return False
        coeffs.append(poly)
    if len(coeffs) != len(minors):
        return False
    remaining = list(minors)
    for p in coeffs:
        for q in remaining:
            if _same_up_to_sign(p, q):
                remaining.remove(q)
                break
        else:
            return False
    return not remaining


def _same_up_to_sign(p: MPoly, q: MPoly) -> bool:
    return p.terms == q.terms or p.terms == (-q).terms


def run_cox(max_iterations=64) -> CoxResult:
    y = cox_surface()
    d = build_cox_pdivisor(y)
    domain = linearity_subdivision(d)
    cells = tuple(domain.cells)
    rays = tuple(sorted(primitive(r) for r in domain.rays()))
    report = [f"linearity subdivision: {len(cells)} maximal cones, {len(rays)} rays"]

    bpf = {}
    floors = {}  # the floor of each ray's evaluation
    ray_classes = {}
    for r in rays:
        bpf[r], base = find_k_rho(d, r, max_iterations)
        floors[r] = base.floor()
        ray_classes[r] = y.divisor_class(floors[r])
    distinct = sorted(set(ray_classes.values()))
    report.append(f"evaluation classes at the rays: {len(distinct)} distinct")
    report.append(
        "base point free multiples: "
        + (
            "all 1"
            if all(k == 1 for k in bpf.values())
            else str(sorted(set(bpf.values())))
        )
    )

    reduced = reduce_rays(y, d, ray_classes)
    report.append(f"rays kept after the product reduction: {len(reduced)}")

    pool = []
    for u in reduced:
        floor = floors[u] if u in floors else d.evaluate(u).floor()
        pool.extend(GradedElement(s, u) for s in sections(y, floor))
    pool = _sorted_elements(pool)
    report.append(f"section pool: {len(pool)} elements")

    gens = reduce_generators(y, pool)
    report.append(f"generators after pruning: {len(gens)}")

    text = presentation_text(gens)
    minors_ok = minors_certificate(gens)
    report.append(f"minors certificate: {'pass' if minors_ok else 'fail'}")

    final = normalize_or_export(y, gens)
    added = len(final.elements) - len(gens)
    report.append(
        f"normalization: {final.normalization_status}, {added} elements added"
    )
    return CoxResult(
        cells=cells,
        rays=rays,
        ray_classes=ray_classes,
        bpf_multiples=bpf,
        reduced_rays=reduced,
        pool=tuple(pool),
        generators=final,
        presentation=text,
        minors_match=minors_ok,
        report=tuple(report),
    )
