"""Cox ring of a degree five del Pezzo surface.

The surface is the blow-up of the projective plane in four general
points.  Its effective cone is spanned by the classes of the ten
negative curves; a polyhedral divisor on the surface itself, graded by
the class lattice, has the Cox ring as its section algebra.  The one on
the standard points ships in the package as the job file ``cox-s5.pdiv``,
which ``build_cox_pdivisor`` reads as every job is read.  ``run_cox`` runs
the general route's steps on it or on a p-divisor its caller built over
another such surface: the ray harvest, the ray sections and the
completion.  What it adds is specific to the Cox ring: the ray classes
and their product reduction, the report lines, the presentation in the
curve variables and the minors certificate, which read the points,
coordinates and line H of the surface and the classes of its negative
curves.  The command line refuses a weight cone other than the effective
cone, which those classes span.
"""

from collections import Counter
from importlib.resources import files
from itertools import combinations
from operator import ge
from typing import NamedTuple

from .engine import (
    GeneratorSet,
    _facet_values,
    _nn_decompositions,
    _sorted_elements,
    complete_generators,
    harvest_rays,
    zariski_generators,
)
from .intlinalg import primitive
from .jobfile import build_pdivisor, build_variety, parse_job
from .mpoly import MPoly
from .pdivisor import PDivisor, linearity_subdivision

# the curve variables t0..t9 of the presentation: the exceptional curves
# E1..E4, then the line transforms E14, E34, E24, E23, E13, E12
CURVE_COLUMNS = ("E1", "E2", "E3", "E4", "E14", "E34", "E24", "E23", "E13", "E12")


def build_cox_pdivisor() -> PDivisor:
    """The polyhedral divisor whose section algebra is the Cox ring, read
    from the packaged job file ``cox-s5.pdiv``."""
    job = parse_job(files(__package__).joinpath("cox-s5.pdiv").read_text(encoding="utf-8"))
    return build_pdivisor(job, build_variety(job))


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
            cls[u] = y.class_of(d.evaluate(u).floor())
        return cls[u]

    # u2 - z lies in the weight cone exactly when no facet value of z
    # exceeds that of u2; each weight's values are computed once
    facets, values = d.weight_cone.facets, {}
    zero_candidates = [c for c in y.negative_curve_classes() if not any(class_of(c))]
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
            v2 = _facet_values(values, facets, u2)
            for z in zero_candidates:
                u1 = tuple(a - b for a, b in zip(u2, z))
                if u1 == u2 or not any(u1):
                    continue
                if not all(map(ge, v2, _facet_values(values, facets, z))):
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


def _t_monomial(u, columns, cone, values):
    """Exponents of a monomial in the curve variables with total class u:
    the first decomposition of u the search finds, or None.

    ``columns`` are the classes of the curve variables, ``cone`` is their
    cone and ``values`` its facet value cache, all shared by every call of
    one presentation.
    """
    for parts in _nn_decompositions(u, columns, 5000, cone, values, first=True):
        exps = [0] * len(columns)
        for w in parts:
            exps[columns.index(w)] += 1
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


def presentation_text(y, elements, cone):
    """The elements as monomials in the curve variables; ``cone`` is the weight cone."""
    names = [*y.coordinates, "h"]
    line = y.form("H").format(y.coordinates).replace(" ", "")
    lines = [
        f"# subalgebra of P = C[{','.join(names)},t0..t9] / (h*({line}) - 1 + toric relations)",
        "# t_i carries the class of the i-th negative curve",
    ]
    columns = [y.class_vector(label) for label in CURVE_COLUMNS]
    values = {}
    for e in _sorted_elements(elements):
        exps = _t_monomial(e.weight, columns, cone, values)
        poly = _coefficient_poly(e)
        if exps is None or poly is None:
            lines.append(f"# unpresentable element at weight {e.weight}")
            continue
        tpart = " * ".join(
            f"t{i}" if k == 1 else f"t{i}^{k}" for i, k in enumerate(exps) if k
        )
        coeff = poly.format(names)
        if poly.terms == {(0, 0, 0, 0): 1}:
            lines.append(tpart or "1")
        else:
            lines.append(f"({coeff}) * {tpart}" if tpart else f"({coeff})")
    return "\n".join(lines) + "\n"


def certificate_matrix(y):
    """Columns of the 3 x 5 matrix whose maximal minors are the
    coefficients of the generators: the four points, whose entries are
    numbers, and the column of the coordinates times h."""
    h = MPoly.variable(4, 3)
    return [*y.points, [MPoly.variable(4, i) * h for i in range(3)]]


def _det3(cols):
    a, b, c = cols
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - b[0] * (a[1] * c[2] - a[2] * c[1])
        + c[0] * (a[1] * b[2] - a[2] * b[1])
    )


def minors_certificate(y, elements) -> bool:
    """The coefficients of the generators agree, up to nonzero scalars,
    with the nonzero maximal minors of the certificate matrix."""
    # a minor of three points is a number, which the sum makes a polynomial
    cols = combinations(certificate_matrix(y), 3)
    minors = [MPoly(4) + m for c in cols if (m := _det3(c))]
    coeffs = [_coefficient_poly(e) for e in elements]
    if None in coeffs:
        return False
    return Counter(p.content_normalized() for p in coeffs) == Counter(
        m.content_normalized() for m in minors
    )


def run_cox(d=None, max_iterations=64, domain=None) -> CoxResult:
    """The Cox route on the p-divisor d over a four-point blow-up.

    The default is the packaged Cox p-divisor; ``domain`` is the
    linearity subdivision of d when the caller has it.
    """
    if d is None:
        d = build_cox_pdivisor()
    y = d.variety
    if domain is None:
        domain = linearity_subdivision(d)
    cells = tuple(domain.cells)
    rays = tuple(sorted(primitive(r) for r in domain.rays()))
    report = [f"linearity subdivision: {len(cells)} maximal cones, {len(rays)} rays"]

    harvest = harvest_rays(d, rays, max_iterations)
    bpf = {r: k for r, (k, _) in harvest.items()}
    ray_classes = {r: y.class_of(base.floor()) for r, (_, base) in harvest.items()}
    report.append(f"evaluation classes at the rays: {len(set(ray_classes.values()))} distinct")
    multiples = sorted(set(bpf.values()))
    report.append(f"base point free multiples: {'all 1' if multiples == [1] else multiples}")

    reduced = reduce_rays(y, d, ray_classes)
    report.append(f"rays kept after the product reduction: {len(reduced)}")

    # a weight the reduction adds goes through the same harvest as a ray
    kept = [primitive(u) for u in reduced]
    harvest.update(harvest_rays(d, [r for r in kept if r not in harvest], max_iterations))
    pool, _ = zariski_generators(d, {r: harvest[r] for r in kept})
    raw_count, pruned, _, final = complete_generators(y, d, pool, harvest, max_iterations)
    report.append(f"section pool: {raw_count} elements")
    report.append(f"generators after pruning: {len(pruned)}")

    text = presentation_text(y, pruned, d.weight_cone)
    minors_ok = minors_certificate(y, pruned)
    report.append(f"minors certificate: {'pass' if minors_ok else 'fail'}")

    added = len(final.elements) - len(pruned)
    report.append(f"normalization: {final.normalization_status}, {added} elements added")
    return CoxResult(
        cells=cells,
        rays=rays,
        ray_classes=ray_classes,
        bpf_multiples=bpf,
        reduced_rays=reduced,
        pool=tuple(_sorted_elements(pool)),
        generators=final,
        presentation=text,
        minors_match=minors_ok,
        report=tuple(report),
    )
