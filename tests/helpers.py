"""Shared builders, golden data, and independent oracles for the tests."""

from fractions import Fraction
from itertools import combinations
from itertools import product as iproduct
from math import comb, gcd, lcm

from pdivgen.engine import (
    PRODUCT_CAP,
    GradedElement,
    _dedupe,
    _interior_ray,
    _nn_decompositions,
    _sorted_elements,
    algebra_membership,
    extended_vector,
)
from pdivgen.intlinalg import (
    echelon,
    hnf_basis,
    identity,
    kernel_lattice,
    primitive,
    rational_kernel,
    reduce_row,
    solve_in_lattice,
)
from pdivgen.jobfile import JobDescription
from pdivgen.mpoly import MPoly, monomials_of_degree
from pdivgen.pdivisor import IterationLimitExceeded, PDivisor, find_k_rho, linearity_subdivision
from pdivgen.polyhedra import (
    NonPointedCone,
    PolyhedralSubdivision,
    QCone,
    TailedPolyhedron,
    cone_from_facets,
    cone_from_rays,
    dot,
    dual_cone,
    generators_of_dual,
    hilbert_basis,
    tailed_polyhedron,
    triangulate,
)
from pdivgen.varieties import (
    BlowupOfP2,
    NotTMoveable,
    ProjectiveSpace,
    QDivisor,
    _reduce_sparse,
    common_denominator,
    ffe,
    is_basepoint_free,
    numerator_vectors,
    sections,
    sections_of_floor,
)


def mat_mul(a, b):
    """Product of two integer matrices given as rows."""
    bt = list(zip(*b)) if b else []
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def det(rows):
    """Determinant of a square integer matrix, fraction-free Bareiss."""
    a = [list(row) for row in rows]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant of a matrix that is not square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def format_job(job: JobDescription) -> str:
    """Canonical job writer; parse_job(format_job(parse_job(text))) round-trips."""
    out = []
    for section in sorted(job.sections):
        out.append(f"[{section}]")
        for key in sorted(job.sections[section]):
            out.append(f"{key} = {job.sections[section][key]}")
        out.append("")
    return "\n".join(out)


def per_simplex_ray_pool(d, max_iterations=64):
    """The general route's ray harvest, one simplex of each cell at a time.

    A ray that several simplices share is harvested once per simplex and
    the repeats are dropped by key, so the elements come in the order of
    the triangulated cells' rays.
    """
    pool = {}
    for cell in linearity_subdivision(d).cells:
        for simplex in triangulate(cell):
            for rho in simplex:
                rho = primitive(rho)
                k, base = find_k_rho(d, rho, max_iterations)
                weight = tuple(k * x for x in rho)
                for eta in sections(d.variety, base * k):
                    element = GradedElement(eta, weight)
                    pool.setdefault(element.key(), element)
    return list(pool.values())


def every_k_ray_search(d, rho, max_iterations=64):
    """The ray search without homogeneity: evaluate D(k*rho) afresh for
    every k = 1..max_iterations, integral or not.

    Returns (k, D(k*rho)) for the least integral base point free multiple.
    """
    for k in range(1, max_iterations + 1):
        div = d.evaluate(tuple(k * x for x in rho))
        if div.is_integral() and is_basepoint_free(d.variety, div):
            return k, div
    raise IterationLimitExceeded(
        f"no integral base point free multiple of {tuple(rho)} up to {max_iterations}"
    )


def guarded_quotient_field_complete(d, elements, pool=(), max_iterations=64):
    """The quotient field step with a guard on each reserve move.

    A pass whose reserve witness is feasible keeps the reserve elements it
    uses when there are any, and otherwise steps along the interior ray,
    which it takes before its first check.  The targets and kept keys are
    rebuilt on every pass.
    """
    y = d.variety
    gens = y.function_field_generators()
    if not gens:
        return []
    kept = list(elements)
    kept_keys = {x.key() for x in kept}
    reserve = [e for e in _dedupe(pool) if e.key() not in kept_keys]
    rho = _interior_ray(d.weight_cone)
    natoms = len(y.atoms)
    rank = d.weight_cone.dim
    added = []
    j = 1

    def factorable(pool):
        usable, vectors = [], []
        for e in pool:
            v = extended_vector(y, e)
            if v is not None:
                usable.append(e)
                vectors.append(v)
        return usable, vectors

    def targets():
        for i_num, i_den in gens:
            t = [0] * natoms
            t[i_num] += 1
            t[i_den] -= 1
            yield (i_num, i_den), tuple(t) + tuple([0] * rank)

    while True:
        _, vectors = factorable(kept)
        missing = next(
            (pair for pair, target in targets() if solve_in_lattice(target, vectors) is None),
            None,
        )
        if missing is None:
            return added
        usable2, vectors2 = factorable(kept + reserve)
        grabbed = set()
        feasible = True
        for pair, target in targets():
            combo = solve_in_lattice(target, vectors2)
            if combo is None:
                feasible = False
                break
            for e, c in zip(usable2, combo):
                if c:
                    grabbed.add(e.key())
        if feasible and grabbed:
            kept_keys = {x.key() for x in kept}
            moved = [e for e in reserve if e.key() in grabbed and e.key() not in kept_keys]
            if moved:
                kept.extend(moved)
                added.extend(moved)
                reserve = [e for e in reserve if e.key() not in grabbed]
                continue
        if j > max_iterations:
            raise IterationLimitExceeded(
                f"no quotient field witness for coordinate ratio {missing}"
            )
        u = tuple(j * x for x in rho)
        div = d.evaluate(u)
        kept_keys = {x.key() for x in kept}
        for s in sections_of_floor(y, div):
            el = GradedElement(s, u)
            if el.key() not in kept_keys:
                kept.append(el)
                added.append(el)
        j += 1


# ---------------------------------------------------------------------------
# the running example: the plane with two marked cubics


def plane_variety() -> ProjectiveSpace:
    y = ProjectiveSpace(2, ("x", "y", "z"))
    x, yy, z = (MPoly.variable(3, i) for i in range(3))
    y.register_divisor("D", x * yy * z)
    y.register_divisor("E", (yy - z) * (x - z) * (x - yy))
    return y


def plane_pdivisor(y=None, d_vertex=(0, Fraction(1, 2))) -> PDivisor:
    if y is None:
        y = plane_variety()
    omega = cone_from_rays([(-1, 1), (1, 1)], 2)
    tail = dual_cone(omega)
    coeff_d = tailed_polyhedron([d_vertex], tail)
    coeff_e = tailed_polyhedron([(-1, 1), (1, 1)], tail)
    return PDivisor(y, omega, {"D": coeff_d, "E": coeff_e})


# the Cox p-divisor of the degree 5 del Pezzo surface, built by hand from
# literal points: the oracle of the packaged job file


def standard_blowup() -> BlowupOfP2:
    """The plane blown up in the four standard points, with H = x0 - x1 + x2."""
    points = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
    return BlowupOfP2(points, MPoly(3, {(1, 0, 0): 1, (0, 1, 0): -1, (0, 0, 1): 1}))


def cox_pdivisor_oracle() -> PDivisor:
    """The Cox p-divisor over ``standard_blowup()``.

    The coefficient of H is a shifted dual cone; the coefficients of
    the exceptional curves and the line transforms are segments from
    the origin, so their support functions switch along one hyperplane
    each.
    """
    y = standard_blowup()
    omega = cone_from_rays(y.negative_curve_classes(), 5)
    tail = dual_cone(omega)
    zero = tuple([0] * 5)

    def seg(v):
        return tailed_polyhedron([zero, v], tail)

    coeffs = {"H": tailed_polyhedron([(1, 0, 0, 0, 0)], tail)}
    for i in range(1, 5):
        coeffs[f"E{i}"] = seg(tuple(1 if k == i else 0 for k in range(5)))
    for i, j in combinations(range(1, 5), 2):
        v = [0] * 5
        v[0] = 1
        v[i] = 1
        v[j] = 1
        coeffs[f"E{i}{j}"] = seg(tuple(v))
    return PDivisor(y, omega, coeffs)


def thirteen_generators(y):
    """The known small generating set of the plane example, as graded
    elements: monomial multiples of 1/f1 and 1/(f1 f2^2) plus two pure
    characters."""
    x, yy, z = (MPoly.variable(3, i) for i in range(3))
    one = MPoly.constant(3, 1)
    f1 = [("D", 1)]
    f1f2sq = [("D", 1), ("E", 2)]
    gens = []
    for m in (x**3, yy**3, z**3):
        gens.append(GradedElement(ffe(m, f1), (-2, 2)))
    for m in (x**9, yy**9, z**9):
        gens.append(GradedElement(ffe(m, f1f2sq), (0, 2)))
    for m in (x**3, yy**3, z**3):
        gens.append(GradedElement(ffe(m, f1), (2, 2)))
    gens.append(GradedElement(ffe(one), (0, 1)))
    gens.append(GradedElement(ffe(one), (1, 1)))
    gens.append(GradedElement(ffe(x**2 * yy, f1), (-2, 2)))
    gens.append(GradedElement(ffe(x * yy**2, f1), (-2, 2)))
    return gens


# ---------------------------------------------------------------------------
# golden data of the torus route

SIGMA_TILDE_RAYS = (
    (-1, 1, 0, 0),
    (1, 0, 0, 0),
    (-2, 3, 2, 0),
    (-2, 3, 0, 2),
    (-2, 3, -2, -2),
)

_HB_MATRICES = (
    """
 0 2 1 0 2 1 0 2 1 0 0 0 2 1 0 2 1 0 0 0 0
 1 2 2 2 2 2 2 2 2 2 1 1 2 2 2 2 2 2 1 1 1
 -1 -1 -2 -3 0 -1 -2 -1 -2 -3 0 -1 1 0 -1 -1 -2 -3 1 0 -1
 -1 -1 -2 -3 -1 -2 -3 0 -1 -2 -1 0 -1 -2 -3 1 0 -1 -1 0 1
""",
    """
 2 2 2 1 0 2 1 0 0 0 0 0 1 0 1 0 1 0 1 0 1 1
 2 2 2 2 2 2 2 2 1 1 1 1 2 2 2 2 2 2 2 2 2 2
 1 0 2 1 0 -1 -2 -3 2 1 0 -1 2 1 -2 -3 3 2 -2 -3 3 2
 0 1 -1 -2 -3 2 1 0 -1 0 1 2 -2 -3 2 1 -2 -3 3 2 -1 0
""",
    """
 1 1 1 1 1 0 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0
 1 2 2 2 2 2 2 2 2 2 2 2 2 2 2 2 2 2 2 2 2 2
 0 1 0 -1 4 3 -2 -3 4 -3 5 -3 5 4 3 2 1 0 -1 -2 6 -3
 0 1 2 3 -2 -3 4 3 -3 4 -3 5 -2 -1 0 1 2 3 4 5 -3 6
""",
)


def _columns(matrix_text):
    rows = [[int(x) for x in line.split()] for line in matrix_text.strip().splitlines()]
    return [tuple(r[j] for r in rows) for j in range(len(rows[0]))]


PRINTED_HB_COLUMNS = tuple(c for m in _HB_MATRICES for c in _columns(m))


# ---------------------------------------------------------------------------
# independent semigroup oracle

# The brute force works level by level for a strictly positive grading:
# every minimal generator lies below the level of the sum of the
# primitive rays, and an element is reducible exactly when subtracting
# some lower-level member lands back in the cone.


def _ceil(f: Fraction):
    return -((-f.numerator) // f.denominator)


def _floor(f: Fraction):
    return f.numerator // f.denominator


def brute_hilbert_basis(rays, dim):
    cone = cone_from_rays(rays, dim)
    dual = dual_cone(cone)
    phi = tuple(sum(r[i] for r in dual.rays) for i in range(dim))
    prim = [primitive(r) for r in cone.rays]
    assert all(dot(phi, r) > 0 for r in prim), "grading must be strictly positive"
    top = sum(dot(phi, r) for r in prim)
    lo = [min(Fraction(r[j], dot(phi, r)) for r in prim) for j in range(dim)]
    hi = [max(Fraction(r[j], dot(phi, r)) for r in prim) for j in range(dim)]
    members = {}
    for level in range(1, top + 1):
        ranges = [
            range(_ceil(level * lo[j]), _floor(level * hi[j]) + 1) for j in range(dim)
        ]
        pts = []
        for p in iproduct(*ranges):
            if dot(phi, p) == level and cone.contains(p):
                pts.append(p)
        members[level] = pts
    basis = []
    for level in range(1, top + 1):
        for p in members[level]:
            reducible = False
            for lower in range(1, level):
                for a in members[lower]:
                    if cone.contains(tuple(x - y for x, y in zip(p, a))):
                        reducible = True
                        break
                if reducible:
                    break
            if not reducible:
                basis.append(p)
    return sorted(basis)


# ---------------------------------------------------------------------------
# incremental rational rank


class IncrementalRank:
    """Row rank over the rationals, one vector at a time."""

    def __init__(self):
        self.rows = []  # reduced rows with leading 1 at distinct pivots
        self.pivots = []

    def add(self, vec):
        vec = list(vec)
        for row, piv in zip(self.rows, self.pivots):
            c = vec[piv]
            if c:
                for j in range(len(vec)):
                    vec[j] -= c * row[j]
        for j, c in enumerate(vec):
            if c:
                inv = Fraction(1, 1) / c
                self.rows.append([x * inv for x in vec])
                self.pivots.append(j)
                return True
        return False

    @property
    def rank(self):
        return len(self.rows)


# ---------------------------------------------------------------------------
# rational row reduction


def fraction_rref(rows):
    """``intlinalg.rref`` over the rationals, dividing by each pivot.

    Returns (rref_rows, pivot_columns); rows are tuples of Fractions.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = a[r][c]
        a[r] = [x / inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return [tuple(row) for row in a], pivots


def fraction_kernel_basis(rows, width):
    """Kernel basis over the rationals: per non-pivot column j, 1 at j."""
    red, pivots = fraction_rref(rows)
    basis = []
    for j in range(width):
        if j in pivots:
            continue
        vec = [Fraction(0)] * width
        vec[j] = Fraction(1)
        for r, pc in zip(red, pivots):
            vec[pc] = -r[j]
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# dense Hermite normal forms: the elimination on lists that carries its
# m x m transform through every row operation


def dense_hnf(rows):
    """Row Hermite normal form.

    Returns (H, U) with U unimodular, H = U * rows, pivots positive,
    entries above each pivot reduced into [0, pivot), zero rows last.
    """
    a = [list(row) for row in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    u = [list(row) for row in identity(m)]
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if a[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        u[r], u[piv] = u[piv], u[r]
        # clear below the pivot with exact gcd steps
        for i in range(r + 1, m):
            while a[i][c] != 0:
                q = a[r][c] // a[i][c]
                a[r] = [x - q * y for x, y in zip(a[r], a[i])]
                u[r] = [x - q * y for x, y in zip(u[r], u[i])]
                a[r], a[i] = a[i], a[r]
                u[r], u[i] = u[i], u[r]
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
            u[r] = [-x for x in u[r]]
        # reduce entries above the pivot
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
        if r == m:
            break
    return tuple(tuple(row) for row in a), tuple(tuple(row) for row in u)


def dense_hnf_basis(rows):
    h, _ = dense_hnf(rows)
    return tuple(row for row in h if any(row))


def dense_kernel_lattice(rows):
    """Kernel rows of U where H of the transpose is zero, in HNF."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    h, u = dense_hnf(tuple(zip(*rows, strict=True)))
    ker = [u[i] for i in range(n) if not any(h[i])]
    return dense_hnf_basis(ker) if ker else tuple()


def dense_solve_in_lattice(target, basis):
    """Back-substitution into dense_hnf(basis), combining the rows of U."""
    if not basis:
        return None if any(target) else ()
    h, u = dense_hnf(basis)
    nz = [i for i, row in enumerate(h) if any(row)]
    v = list(target)
    coeffs = [0] * len(basis)
    for i in nz:
        row = h[i]
        c = next(j for j, x in enumerate(row) if x)
        if v[c] % row[c]:
            return None
        q = v[c] // row[c]
        v = [x - q * y for x, y in zip(v, row)]
        for k in range(len(basis)):
            coeffs[k] += q * u[i][k]
    if any(v):
        return None
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# span tests by two rational row reductions


def _fraction_numerator_vectors(y, elements):
    """Numerators over the common factored denominator, as Fraction rows."""
    common = {}
    for e in elements:
        for label, k in e.den:
            common[label] = max(common.get(label, 0), k)
    nums = []
    for e in elements:
        num = e.num
        own = dict(e.den)
        for label, k in common.items():
            num = num * y.form(label) ** (k - own.get(label, 0))
        nums.append(num)
    monos = sorted({ex for n in nums for ex in n.terms}, reverse=True)
    return [[n.terms.get(ex, Fraction(0)) for ex in monos] for n in nums]


def fraction_in_span(y, target, elements):
    """``varieties.in_span`` by comparing the ranks of two Fraction rrefs."""
    if not elements:
        return not target.num
    vecs = _fraction_numerator_vectors(y, list(elements) + [target])
    return len(fraction_rref(vecs)[1]) == len(fraction_rref(vecs[:-1])[1])


def span_dimension(y, elements) -> int:
    """Dimension of the span of the sections, by the sparse echelon of ``in_span``."""
    ech = {}
    for row in numerator_vectors(y, elements, common_denominator(elements)):
        reduced = _reduce_sparse(ech, row)
        if reduced is not None:
            ech[reduced[0]] = reduced[1]
    return len(ech)


def dense_numerator_rows(y, elements):
    """The numerators over the elements' common denominator as dense
    integer rows, one column per monomial in descending order."""
    sparse = list(numerator_vectors(y, elements, common_denominator(elements)))
    monos = sorted({ex for row in sparse for ex in row}, reverse=True)
    return [[row.get(ex, 0) for ex in monos] for row in sparse]


def fraction_span_dimension(y, elements):
    """``span_dimension`` as the rank of a Fraction rref."""
    if not elements:
        return 0
    return len(fraction_rref(_fraction_numerator_vectors(y, elements))[1])


# ---------------------------------------------------------------------------
# brute-force extreme rays


def brute_force_pointed_rays(ineqs, dim):
    """Extreme rays of the pointed cone {x : A x >= 0}; rank(A) == dim.

    Tries every (dim-1)-subset of the inequalities: a one-dimensional
    kernel spans an extreme ray when no inequality takes both signs on
    it.  Exponential in the number of inequalities; an oracle for
    ``polyhedra._pointed_rays``.
    """
    rows = tuple(sorted({tuple(r) for r in ineqs if any(r)}))
    if dim == 0:
        return ()
    if dim == 1:
        signs = {1 if r[0] > 0 else -1 for r in rows}
        if signs == {1}:
            return ((1,),)
        if signs == {-1}:
            return ((-1,),)
        return ()
    found = set()
    for sub in combinations(rows, dim - 1):
        ker = kernel_lattice(sub)
        if len(ker) != 1:
            continue
        v = ker[0]
        pos = neg = False
        for a in rows:
            s = dot(a, v)
            if s > 0:
                pos = True
            elif s < 0:
                neg = True
            if pos and neg:
                break
        if pos and neg:
            continue
        found.add(primitive(v) if pos or not neg else primitive([-x for x in v]))
    return tuple(sorted(found))


# ---------------------------------------------------------------------------
# cones by two passes of generators_of_dual


def two_pass_cone_from_rays(rays, dim):
    """``polyhedra.cone_from_rays`` as two ``generators_of_dual`` passes:
    the facets, then the canonical rays as the dual of the facets."""
    rays = [tuple(primitive(r)) for r in rays if any(r)]
    facets = generators_of_dual(rays, dim)
    return QCone(dim, generators_of_dual(facets, dim), facets)


def two_pass_cone_from_facets(normals, dim):
    """``polyhedra.cone_from_facets`` as two ``generators_of_dual`` passes."""
    normals = [tuple(primitive(n)) for n in normals if any(n)]
    rays = generators_of_dual(normals, dim)
    return QCone(dim, rays, generators_of_dual(rays, dim))


def two_pass_dual_cone(c):
    """``polyhedra.dual_cone`` by recomputing both lists."""
    rays = generators_of_dual(c.rays, c.dim)
    return QCone(c.dim, rays, generators_of_dual(rays, c.dim))


def two_pass_halves(c, h):
    """The halves of the cell c on the two sides of the hyperplane h, each
    cut out from scratch by the cell's facets and one halfspace."""
    h = primitive(h)
    return [
        two_pass_cone_from_facets(list(c.facets) + [n], c.dim)
        for n in (h, tuple(-x for x in h))
    ]


def two_pass_hyperplane_subdivision(ambient, hyperplanes):
    """``polyhedra.hyperplane_subdivision`` cell by cell: a cell with rays
    strictly on both sides of a distinct plane is replaced by its
    ``two_pass_halves``; the cells come out sorted by their rays."""
    cells = [ambient]
    seen = set()
    for h in hyperplanes:
        h = primitive(h)
        key = min(h, tuple(-x for x in h))
        if key in seen:
            continue
        seen.add(key)
        nxt = []
        for c in cells:
            vals = [dot(h, r) for r in c.rays]
            if all(v >= 0 for v in vals) or all(v <= 0 for v in vals):
                nxt.append(c)
            else:
                nxt.extend(two_pass_halves(c, h))
        cells = nxt
    return PolyhedralSubdivision(tuple(sorted(cells, key=lambda c: c.rays)))


# ---------------------------------------------------------------------------
# the common refinement by normal fans, in two steps


def normal_fan(p):
    """Cones of linearity of u -> min<P, u>, subdividing dual(tail): per
    vertex v, the ambient facets and the normals w - v cut out one cone,
    kept when it is full-dimensional and new."""
    if not p.tail.is_pointed():
        raise NonPointedCone("normal_fan needs a pointed tail cone")
    ambient = dual_cone(p.tail)
    full = ambient.span_rank()
    cells = []
    seen = set()
    for v in p.vertices:
        normals = [primitive(tuple(a - b for a, b in zip(w, v))) for w in p.vertices if w != v]
        cell = cone_from_facets(list(ambient.facets) + normals, p.dim)
        if cell.span_rank() == full and cell.rays not in seen:
            seen.add(cell.rays)
            cells.append(cell)
    return PolyhedralSubdivision(tuple(sorted(cells, key=lambda c: c.rays)))


def two_step_common_refinement(subs, ambient):
    """``polyhedra.common_refinement`` on built fans: each cell is cut by
    the facets of each fan cone that are negative on one of its rays."""
    full = ambient.span_rank()
    cells = [ambient]
    for sub in subs:
        nxt = []
        seen = set()
        for c in cells:
            for f in sub.cells:
                extra = [n for n in f.facets if any(dot(n, r) < 0 for r in c.rays)]
                piece = c if not extra else cone_from_facets(list(c.facets) + extra, ambient.dim)
                if piece.span_rank() == full and piece.rays not in seen:
                    seen.add(piece.rays)
                    nxt.append(piece)
        cells = nxt
    return PolyhedralSubdivision(tuple(sorted(cells, key=lambda c: c.rays)))


# ---------------------------------------------------------------------------
# tailed polyhedra by one homogenized double description


def homogenized_tailed_polyhedron(vertices, tail_rays, dim):
    """``polyhedra.tailed_polyhedron`` from the rays of its tail: the
    vertices and the tail are read off the cone over the points at height
    one and the tail rays at height zero, whatever their number."""
    homog = [tuple(Fraction(x) for x in v) + (Fraction(1),) for v in vertices]
    homog = [primitive(h) for h in homog]
    homog += [tuple(r) + (0,) for r in tail_rays if any(r)]
    c = cone_from_rays(homog, dim + 1)
    verts = []
    tails = []
    for r in c.rays:
        if r[-1] > 0:
            verts.append(tuple(Fraction(x, r[-1]) for x in r[:-1]))
        elif r[-1] == 0:
            tails.append(r[:-1])
        else:
            raise ValueError("unbounded in the negative homogenization direction")
    if not verts:
        raise ValueError("a tailed polyhedron needs at least one vertex")
    return TailedPolyhedron(dim, tuple(sorted(verts)), cone_from_rays(tails, dim))


# ---------------------------------------------------------------------------
# recursive decomposition search


def recursive_nn_decompositions(u, weights, limit=20000):
    """``engine._nn_decompositions`` as a recursive preorder search.

    Decompositions come in the order the recursion finds them, and the
    search stops after ``limit`` visited nodes; an oracle for the order
    and the node limit of the iterative search.
    """
    weights = sorted(set(weights))
    if not weights:
        return [()] if not any(u) else []
    cone = cone_from_rays(weights, len(weights[0]))
    out = []
    nodes = [0]

    def rec(remaining, start, chosen):
        nodes[0] += 1
        if nodes[0] > limit:
            return
        if not any(remaining):
            out.append(tuple(chosen))
            return
        for i in range(start, len(weights)):
            nxt = tuple(a - b for a, b in zip(remaining, weights[i]))
            if cone.contains(nxt):
                rec(nxt, i, chosen + [weights[i]])

    rec(tuple(u), 0, [])
    return out


def one_shot_algebra_membership(y, element, gens):
    """``engine.algebra_membership`` multiplying out every decomposition's
    products, up to the same caps, before one dense echelon of them all
    over their own common denominator: the oracle for the span test that
    stops at the first product completing the span."""
    by_weight = {}
    for g in gens:
        by_weight.setdefault(g.weight, []).append(g)
    products = []
    one = ffe(MPoly.constant(y.nvars, 1))
    for parts in _nn_decompositions(element.weight, list(by_weight)):
        partials = [one]
        for w in parts:
            partials = [p * g.section for p in partials for g in by_weight[w]]
            if len(partials) > PRODUCT_CAP:
                partials = partials[:PRODUCT_CAP]
        products.extend(partials)
        if len(products) > 4 * PRODUCT_CAP:
            break
    if not products:
        return False
    rows = dense_numerator_rows(y, products + [element.section])
    return reduce_row(echelon(rows[:-1]), rows[-1]) is None


def per_test_reduce_generators(y, elements):
    """``engine.reduce_generators`` with one decomposition search per
    membership test, over the weights of that test's rest; the oracle for
    the search per weight that the tests share."""
    kept = _sorted_elements(_dedupe(elements))
    order = sorted(
        kept, key=lambda e: (sum(abs(x) for x in e.weight), e.key()), reverse=True
    )
    cone = cone_from_rays([e.weight for e in kept], len(kept[0].weight)) if kept else None
    values = {}
    for e in order:
        rest = [g for g in kept if g.key() != e.key()]
        if algebra_membership(y, e, rest, cone=cone, values=values):
            kept = rest
    return _sorted_elements(kept)


def saturate_semigroup(vectors):
    """Hilbert basis of cone(vectors) in the lattice generated by them, in
    the ambient coordinates; the oracle for a point base's saturation,
    which reads the Hilbert basis of the weight cone instead."""
    span = hnf_basis(vectors)
    cone = cone_from_rays([solve_in_lattice(v, span) for v in vectors], len(span))
    return sorted(
        tuple(sum(c * x for c, x in zip(h, column)) for column in zip(*span))
        for h in hilbert_basis(cone)
    )


# ---------------------------------------------------------------------------
# the Cox route's ray reduction and curve monomials as they were


def contains_test_reduce_rays(y, d, ray_classes):
    """``coxs5.reduce_rays`` with a weight cone test of each u2 - z: the
    oracle for the comparison of facet values."""
    cls = dict(ray_classes)

    def class_of(u):
        if u not in cls:
            cls[u] = y.class_of(d.evaluate(u).floor())
        return cls[u]

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


def listing_t_monomial(u, columns, cone, values):
    """``coxs5._t_monomial`` reading the first of every decomposition of u."""
    decomps = _nn_decompositions(u, columns, limit=5000, cone=cone, values=values)
    for parts in decomps:
        exps = [0] * len(columns)
        for w in parts:
            exps[columns.index(w)] += 1
        return tuple(exps)
    return None


# ---------------------------------------------------------------------------
# Fraction support functions and the product-based shift


def support(poly, u):
    """min <P, u> over a tailed polyhedron, in Fractions; u in dual(tail)."""
    return min(dot(v, u) for v in poly.vertices)


def fraction_evaluate(d, u):
    """``PDivisor.evaluate`` by the Fraction support function of each coefficient."""
    return QDivisor({label: support(poly, u) for label, poly in d.coefficients.items()})


def evaluate(poly, point):
    """The value of the polynomial at a point, in Fractions."""
    total = Fraction(0)
    for e, c in poly.terms.items():
        v = c
        for x, k in zip(point, e):
            v *= Fraction(x) ** k
        total += v
    return total


def product_shift(poly, point):
    """``MPoly.shift`` by products of polynomials: x_i -> (x_i + point_i)."""
    n = poly.nvars
    out = MPoly.constant(n, 0)
    for e, c in poly.terms.items():
        term = MPoly.constant(n, c)
        for i, k in enumerate(e):
            term = term * (MPoly.variable(n, i) + MPoly.constant(n, point[i])) ** k
        out = out + term
    return out


def full_shift_local_at(poly, point):
    """``mpoly.local_at`` by ``product_shift``: the whole Taylor expansion
    about the projective point, in the chart of its first nonzero
    coordinate."""
    chart = next(i for i, x in enumerate(point) if x)
    origin = [Fraction(x, point[chart]) if i != chart else 0 for i, x in enumerate(point)]
    return product_shift(poly.dehomogenize(chart, 1), origin)


def full_shift_multiplicity_at(poly, point):
    """``mpoly.multiplicity_at`` from the whole Taylor expansion."""
    low = full_shift_local_at(poly, point).low_degree()
    return poly.total_degree() + 1 if low is None else low


def full_shift_class_vector(y, label):
    """``BlowupOfP2.class_vector`` from whole Taylor expansions."""
    if label in y.exceptional:
        i = int(label[1])
        return tuple(1 if k == i else 0 for k in range(5))
    form = y.form(label)
    return (form.total_degree(), *(-full_shift_multiplicity_at(form, p) for p in y.points))


def full_shift_free_forms(y, degree, d):
    """``BlowupOfP2._free_forms`` with every monomial expanded in full about
    each point, and the conditions read off below each order."""
    req = [0, 0, 0, 0]
    for label, c in d.coeffs.items():
        for i, m in enumerate(full_shift_class_vector(y, label)[1:]):
            req[i] -= int(c) * m
    monos = monomials_of_degree(3, degree)
    rows = []
    for p, m in zip(y.points, req):
        if m <= 0:
            continue
        shifted = [full_shift_local_at(MPoly.monomial(3, e), p) for e in monos]
        for ce in sorted({ex for mp in shifted for ex in mp.terms if sum(ex) < m}):
            rows.append([mp.terms.get(ce, 0) for mp in shifted])
    return [
        MPoly(3, dict(zip(monos, vec))).content_normalized()
        for vec in rational_kernel(rows, len(monos))
    ]


# ---------------------------------------------------------------------------
# polynomial arithmetic with every coefficient a Fraction


class FractionMPoly:
    """``MPoly`` arithmetic as it was before integral coefficients were kept
    as ints: every coefficient is a ``Fraction``."""

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        for e, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                self.terms[tuple(e)] = c

    @classmethod
    def monomial(cls, nvars, exps, c=1):
        return cls(nvars, {tuple(exps): Fraction(c)})

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return FractionMPoly(self.nvars, out)

    def __neg__(self):
        return FractionMPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return FractionMPoly(self.nvars, out)

    def __pow__(self, k):
        out = FractionMPoly.monomial(self.nvars, [0] * self.nvars)
        for _ in range(k):
            out = out * self
        return out

    def shift(self, point):
        """x_i -> x_i + point_i, term by term through the binomial theorem."""
        point = [Fraction(a) for a in point]
        out = {}
        for e, c in self.terms.items():
            expanded = [((), c)]
            for k, a in zip(e, point):
                steps = [(j, comb(k, j) * a ** (k - j)) for j in range(k + 1)]
                expanded = [(ex + (j,), t * f) for ex, t in expanded for j, f in steps]
            for ex, t in expanded:
                out[ex] = out.get(ex, 0) + t
        return FractionMPoly(self.nvars, out)

    def dehomogenize(self, var, value=1):
        out = {}
        for e, c in self.terms.items():
            e2 = e[:var] + (0,) + e[var + 1 :]
            out[e2] = out.get(e2, 0) + c * Fraction(value) ** e[var]
        return FractionMPoly(self.nvars, out)

    def divide_exact(self, divisor):
        rem = self
        quot = FractionMPoly(self.nvars)
        de = max(divisor.terms)
        dc = divisor.terms[de]
        while rem:
            re = max(rem.terms)
            qe = tuple(a - b for a, b in zip(re, de))
            if any(x < 0 for x in qe):
                return None
            t = FractionMPoly.monomial(self.nvars, qe, rem.terms[re] / dc)
            quot = quot + t
            rem = rem - t * divisor
        return quot

    def content_normalized(self):
        if not self.terms:
            return self
        scale = lcm(*(c.denominator for c in self.terms.values()))
        ints = {e: c.numerator * (scale // c.denominator) for e, c in self.terms.items()}
        g = gcd(*ints.values())
        _, lead = max(ints.items())
        if lead < 0:
            g = -g
        return FractionMPoly(self.nvars, {e: Fraction(c // g) for e, c in ints.items()})


# ---------------------------------------------------------------------------
# section exponents: the two factorizations the atom codec replaced


def oracle_factor_exponents(y, section):
    """Exponents over the coordinates and then the non-monomial forms in
    label order, or None unless the section is a scalar times a product of
    coordinates and defining forms."""
    names = [f"@{c}" for c in y.coordinates]
    names += [label for label in sorted(y.forms()) if not y.form(label).is_term()]
    index = {n: i for i, n in enumerate(names)}
    vec = [0] * len(names)
    num = section.num
    for label, e in section.den:
        form = y.form(label)
        if form.is_term():
            exps, _ = form.leading()
            for i, k in enumerate(exps):
                vec[i] -= e * k
        else:
            vec[index[label]] -= e
    for label in sorted(y.forms()):
        form = y.form(label)
        if form.is_term():
            continue
        while True:
            q = num.divide_exact(form)
            if q is None:
                break
            num = q
            vec[index[label]] += 1
    if not num.is_term():
        return None
    exps, _ = num.leading()
    for i, k in enumerate(exps):
        vec[i] += k
    return tuple(vec)


def oracle_element_divisor(y, s):
    """(least exponent of each coordinate, {non-monomial form label: order})."""
    num = s.num
    form_orders = {}
    for label in sorted(y.forms()):
        form = y.form(label)
        if form.is_term():
            continue
        while True:
            q = num.divide_exact(form)
            if q is None:
                break
            num = q
            form_orders[label] = form_orders.get(label, 0) + 1
    coords = [min(e[i] for e in num.terms) for i in range(y.nvars)]
    for label, e in s.den:
        form = y.form(label)
        if form.is_term():
            exps, _ = form.leading()
            for i, k in enumerate(exps):
                coords[i] -= e * k
        else:
            form_orders[label] = form_orders.get(label, 0) - e
    return coords, {k: v for k, v in form_orders.items() if v}


def oracle_projective_basepoint_free(y, d):
    """Base point freeness on projective space by building the sections.

    There is a section when the forced factor leaves a free degree of at
    least 0; then the base locus is the zero set of that factor.
    """
    if not sections(y, d):
        return False
    return all(y.form(l).total_degree() == 0 for l, c in d.coeffs.items() if c < 0)


# ---------------------------------------------------------------------------
# section spaces as each backend built them before they shared one split


def oracle_projective_sections(y, d):
    """Sections of an integral divisor on projective space: monomials of the
    free degree times the forms of the negative coefficients."""
    forced = MPoly.constant(y.nvars, 1)
    den = []
    den_deg = 0
    for l, c in d.coeffs.items():
        f = y.form(l)
        c = int(c)
        if c > 0:
            den.append((l, c))
            den_deg += c * f.total_degree()
        else:
            forced = forced * f ** (-c)
    free_deg = den_deg - forced.total_degree()
    if free_deg < 0:
        return ()
    return tuple(
        ffe(MPoly.monomial(y.nvars, e) * forced, den)
        for e in monomials_of_degree(y.nvars, free_deg)
    )


def oracle_blowup_sections(y, d):
    """Sections of an integral divisor on the four-point blow-up: forms of the
    free degree with the multiplicities the class asks for at the points."""
    forced = MPoly.constant(3, 1)
    den = []
    den_deg = 0
    req = [0, 0, 0, 0]
    for l, c in d.coeffs.items():
        c = int(c)
        if l in y.exceptional:
            req[int(l[1]) - 1] -= c
            continue
        f = y.form(l)
        if c > 0:
            den.append((l, c))
            den_deg += c * f.total_degree()
        else:
            forced = forced * f ** (-c)
        for i, m in enumerate(y.class_vector(l)[1:]):
            req[i] -= c * m
    free_deg = den_deg - forced.total_degree()
    if free_deg < 0:
        return ()
    return tuple(ffe(g * forced, den) for g in _oracle_forms_with_multiplicities(y, free_deg, req))


def _oracle_forms_with_multiplicities(y, degree, req_mults):
    """Degree-d forms vanishing to the given orders at the four points, from a
    Fraction kernel of the vanishing Taylor coefficients."""
    monos = monomials_of_degree(3, degree)
    rows = []
    for p, m in zip(y.points, req_mults):
        if m <= 0:
            continue
        chart = next(i for i, x in enumerate(p) if x)
        shift_pt = [Fraction(p[i], p[chart]) if i != chart else Fraction(0) for i in range(3)]
        shifted = [MPoly.monomial(3, e).dehomogenize(chart, 1).shift(shift_pt) for e in monos]
        cond_exps = sorted({ex for mp in shifted for ex in mp.terms if sum(ex) < m})
        for ce in cond_exps:
            rows.append([mp.terms.get(ce, Fraction(0)) for mp in shifted])
    return [
        MPoly(3, dict(zip(monos, vec))).content_normalized()
        for vec in fraction_kernel_basis(rows, len(monos))
    ]


def oracle_invariantizing_section(y, d):
    """``ProjectiveSpace.invariantizing_section``: the most balanced monomial
    of the non-invariant degree times the forms of the negative coefficients."""
    den = []
    deg = 0
    for l, c in d.coeffs.items():
        form = y.form(l)
        if form.is_term():
            continue
        if c.denominator != 1:
            raise NotTMoveable(f"non-integral coefficient {c} on non-invariant divisor {l}")
        c = int(c)
        den.append((l, c))
        deg += c * form.total_degree()
    if not den:
        return y.one()
    if deg < 0:
        raise NotTMoveable("negative degree on the non-invariant part")
    balanced = min(
        monomials_of_degree(y.nvars, deg),
        key=lambda e: (tuple(sorted(e, reverse=True)), tuple(-x for x in e)),
    )
    num = MPoly.monomial(y.nvars, balanced)
    for l, c in den:
        if c < 0:
            num = num * y.form(l) ** (-c)
    return ffe(num, [(l, c) for l, c in den if c > 0])


# ---------------------------------------------------------------------------
# reading the checks of ``pdivisor.validate``


def report_ok(checks):
    return all(c.verdict != "fail" for c in checks)


def report_unverifiable(checks):
    return tuple(c for c in checks if c.verdict == "UNVERIFIABLE")


def format_report(checks):
    lines = []
    for c in checks:
        tail = f"  ({c.detail})" if c.detail else ""
        lines.append(f"{c.verdict:12s} {c.name}{tail}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# degree-wise generation and minimality


def degreewise_check(y, d, elements, box, where=None):
    """(missing, minimal): the graded elements measured against each piece.

    For each nonzero weight u of the weight cone with |u|_1 <= box, and
    with ``where(u)`` true when ``where`` is given, the piece A_u of the
    section algebra has the basis ``sections(y, floor D(u))``.
    ``missing[u]`` is the codimension in A_u of the span of the products
    of the elements at u, 0 exactly when they generate A_u, and
    ``minimal[u]`` is dim A_u less the rank of the products of two or
    more elements at u.  When the elements generate A
    below u, graded Nakayama makes ``minimal[u]`` the number of minimal
    generators at u.
    The products at u are spanned from a basis at each smaller weight, so
    their number stays near the dimensions.  An element that is not a
    section of the piece at its weight raises AssertionError.
    """
    cone = d.weight_cone
    by_weight = {}
    for e in elements:
        by_weight.setdefault(tuple(e.weight), []).append(e.section)
    pieces, spans, longer = {}, {}, {}

    def piece(u):
        if u not in pieces:
            pieces[u] = sections(y, d.evaluate(u).floor())
        return pieces[u]

    def products(u):
        # a basis of the products of two or more elements at u
        if u not in longer:
            found = []
            for w, own in by_weight.items():
                rest = tuple(a - b for a, b in zip(u, w))
                if any(rest) and cone.contains(rest):
                    found.extend(f * g for f, g in iproduct(_greedy_basis(y, own), span(rest)))
            longer[u] = _greedy_basis(y, found, len(piece(u)))
        return longer[u]

    def span(u):
        # a basis of the products of one or more elements at u
        if u not in spans:
            own = by_weight.get(u, [])
            if len(_greedy_basis(y, [*piece(u), *own])) > len(piece(u)):
                raise AssertionError(f"an element at {u} is not a section of floor D(u)")
            spans[u] = _greedy_basis(y, [*own, *products(u)], len(piece(u)))
        return spans[u]

    missing, minimal = {}, {}
    for u in iproduct(range(-box, box + 1), repeat=cone.dim):
        if any(u) and sum(map(abs, u)) <= box and cone.contains(u) and (where is None or where(u)):
            reached = span(u)
            missing[u] = len(_greedy_basis(y, [*reached, *piece(u)])) - len(reached)
            minimal[u] = len(piece(u)) - len(products(u))
    return missing, minimal


def _greedy_basis(y, elements, cap=None):
    """The elements that raise the rank of those before them, at most ``cap``.

    Numerators over the common factored denominator reduce as sparse
    integer rows keyed by their leading monomial.
    """
    common = {}
    for e in elements:
        for label, k in e.den:
            common[label] = max(common.get(label, 0), k)
    powers = {}
    rows = {}  # leading monomial -> row with leading coefficient 1
    basis = []
    for e in elements:
        if len(basis) == cap:
            break
        num = e.num
        own = dict(e.den)
        for label, k in common.items():
            k -= own.get(label, 0)
            if k:
                if (label, k) not in powers:
                    powers[label, k] = y.form(label) ** k
                num = num * powers[label, k]
        scale = lcm(*(c.denominator for c in num.terms.values()))
        vec = {m: int(c * scale) for m, c in num.terms.items()}
        while vec:
            lead = max(vec)
            row = rows.get(lead)
            if row is None:
                rows[lead] = vec
                basis.append(e)
                break
            # fraction-free: a * vec - c * row cancels the leading term
            a, c = row[lead], vec[lead]
            vec = {m: a * v for m, v in vec.items()}
            for m, v in row.items():
                x = vec.get(m, 0) - c * v
                if x:
                    vec[m] = x
                else:
                    del vec[m]
            g = gcd(*vec.values())
            if g > 1:
                vec = {m: v // g for m, v in vec.items()}
    return basis
