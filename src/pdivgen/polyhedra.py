"""Rational cones, tailed polyhedra, Hilbert bases, fans and refinements.

Everything is exact: rays and facet normals are primitive integer
vectors, polyhedron vertices are Fraction tuples.  Cones carry both
descriptions (generators and facet normals) eagerly; for cones that are
not full-dimensional the facet list contains +/- pairs of normals
cutting out the linear span.
"""

from fractions import Fraction
from itertools import product
from math import lcm
from operator import mul
from typing import NamedTuple

from .intlinalg import (
    hnf_basis,
    identity,
    kernel_lattice,
    primitive,
    rank,
    rref,
    scaled_inverse,
    solve_in_lattice,
)


class NonPointedCone(ValueError):
    """Raised when an operation requires a pointed cone."""


def dot(a, b):
    # a length test and map: zip(strict=True) costs more than the products
    if len(a) != len(b):
        raise ValueError(f"vectors of widths {len(a)} and {len(b)}")
    return sum(map(mul, a, b))


def _dedupe_sorted(vecs):
    return tuple(sorted(set(vecs)))


def _pointed_rays(ineqs, dim):
    """Extreme rays of the pointed cone {x : A x >= 0}; rank(A) == dim."""
    dd = _double_description(_dedupe_sorted(tuple(r) for r in ineqs if any(r)), dim)
    if dd is None:
        raise ValueError("the inequalities do not have full rank")
    return tuple(sorted(dd[0]))


def _double_description(rows, dim):
    """Extreme rays of {x : A x >= 0} and the rows each one is tight on.

    ``rows`` are distinct and nonzero.  Exact incremental double
    description (Motzkin, Raiffa, Thompson and Thrall 1953; Fukuda and
    Prodon 1996): start from the simplicial cone of dim independent rows,
    then cut by the other rows one at a time.  Returns (rays, masks), bit k
    of a ray's mask set when the ray is tight on row k, or None when
    rank(A) < dim.
    """
    start = _simplicial_start(rows, dim)
    if start is None:
        return None
    basis, rays = start
    in_basis = sum(1 << k for k in basis)
    masks = [in_basis & ~(1 << k) for k in basis]
    for k, a in enumerate(rows):
        if in_basis >> k & 1:
            continue
        bit = 1 << k
        vals = [sum(map(mul, a, r)) for r in rays]
        cut_rays, cut_masks = _crossing_rays(rays, masks, vals, bit, dim)
        rays = [r for r, s in zip(rays, vals) if s >= 0] + cut_rays
        masks = [m | bit if s == 0 else m for m, s in zip(masks, vals) if s >= 0] + cut_masks
    return rays, masks


def _crossing_rays(rays, masks, vals, bit, dim):
    """One double-description step: the rays of a pointed cone on a new
    hyperplane, with their tight-row masks.

    ``vals`` are the values of the hyperplane's row on the rays and
    ``bit`` is its mask bit.  A ray on the positive side and one on the
    negative side are adjacent when their common tight set has at least
    dim - 2 rows and lies in the tight set of no third ray; each adjacent
    pair gives one new ray.
    """
    out_rays, out_masks = [], []
    neg = [i for i, s in enumerate(vals) if s < 0]
    for p, sp in enumerate(vals):
        if sp <= 0:
            continue
        for n in neg:
            common = masks[p] & masks[n]
            if bin(common).count("1") < dim - 2 or _contained_elsewhere(common, masks, p, n):
                continue
            sn = -vals[n]
            out_rays.append(primitive([sp * y + sn * x for x, y in zip(rays[p], rays[n])]))
            out_masks.append(common | bit)
    return out_rays, out_masks


def _contained_elsewhere(s, sets, *skip):
    """Whether the bitmask s lies in some member of sets not indexed by skip.

    The combinatorial test of the double description on a pointed cone,
    for adjacent rays (s holds the rows tight on both) and for facets (s
    holds the rays tight on one row; see ``_facet_rows``).
    """
    return any(m & s == s and i not in skip for i, m in enumerate(sets))


def _facet_rows(rows, masks):
    """The rows that define facets of the pointed cone {x : A x >= 0}.

    ``masks`` are the tight-row masks of its extreme rays.  For distinct
    primitive rows of a full-dimensional cone, a row is redundant exactly
    when the rays tight on it are among the rays tight on another row.
    Returns None when the cone is not full-dimensional, which shows as a
    row tight on every ray.
    """
    tight = [0] * len(rows)
    for i, m in enumerate(masks):
        for k in range(len(rows)):
            if m >> k & 1:
                tight[k] |= 1 << i
    if (1 << len(masks)) - 1 in tight:
        return None
    return tuple(
        a for k, (a, t) in enumerate(zip(rows, tight)) if not _contained_elsewhere(t, tight, k)
    )


def _sorted_rays(rays, masks):
    pairs = sorted(zip(rays, masks))
    return tuple(r for r, _ in pairs), [m for _, m in pairs]


def _simplicial_start(rows, dim):
    """The first dim independent rows and the rays of their simplicial cone.

    The rref of [A^T | I] takes the pivot columns in order, so those below
    m = len(A) index the first dim independent rows B of A.  Reduced row i
    is (A y | y) for the primitive ray y on which only row i of B is
    positive (that row is primitive, with a positive pivot).  Returns None
    when A has rank below dim, that is when a pivot falls in the identity
    block.
    """
    m = len(rows)
    red, pivots = rref(
        [list(col) + [int(i == j) for j in range(dim)] for i, col in enumerate(zip(*rows))]
    )
    basis = [c for c in pivots if c < m]
    if len(basis) < dim:
        return None
    return basis, [row[m:] for row in red]


def generators_of_dual(vectors, dim):
    """Generators of {y : <y, v> >= 0 for all v}.

    Returns canonical generators: +/- pairs spanning the lineality space
    followed by the extreme rays of the pointed part.
    """
    ineqs = [tuple(v) for v in vectors if any(v)]
    lin = kernel_lattice(ineqs) if ineqs else identity(dim)
    gens = set()
    for l in lin:
        gens.add(tuple(l))
        gens.add(tuple(-x for x in l))
    if len(lin) < dim:
        if lin:
            # restrict to the orthogonal complement of the lineality space
            comp = kernel_lattice(lin)
            reduced = [tuple(dot(b, a) for b in comp) for a in ineqs]
            for y in _pointed_rays(reduced, len(comp)):
                gens.add(primitive([dot(y, col) for col in zip(*comp)]))
        else:
            gens.update(_pointed_rays(ineqs, dim))
    return tuple(sorted(gens))


class QCone(NamedTuple):
    """Rational polyhedral cone with both descriptions."""

    dim: int
    rays: tuple
    facets: tuple

    def contains(self, point):
        facets = self.facets
        if facets:
            # dot rejects a point of the wrong width
            return all(dot(f, point) >= 0 for f in facets)
        if len(point) != self.dim:
            raise ValueError(f"point of width {len(point)} in a cone of dimension {self.dim}")
        return True

    def contains_interior(self, point):
        # tested here, since neither a cone without facets nor one that is
        # not full-dimensional reaches dot
        if len(point) != self.dim:
            raise ValueError(f"point of width {len(point)} in a cone of dimension {self.dim}")
        return self.is_full_dim() and all(dot(f, point) > 0 for f in self.facets)

    def is_pointed(self):
        # the facets generate the dual, so their sum is interior to it
        # exactly when the dual is full-dimensional, that is when the cone
        # is pointed; an interior point of the dual is positive on each ray
        if not self.rays:
            return True
        total = [sum(col) for col in zip(*self.facets)]
        return bool(total) and all(dot(total, r) > 0 for r in self.rays)

    def is_full_dim(self):
        return self.span_rank() == self.dim

    def span_rank(self):
        return rank(self.rays)


def _dual_pair(vectors, dim):
    """Canonical generators of the dual of cone(vectors) and of cone(vectors).

    When the dual is pointed and full-dimensional, one double description
    over the vectors as inequalities gives both: the dual's extreme rays,
    and the vectors that define its facets, which are the extreme rays of
    cone(vectors).  Otherwise a second pass makes the second list.
    """
    rows = _dedupe_sorted(tuple(primitive(v)) for v in vectors if any(v))
    dd = _double_description(rows, dim)
    if dd is None:
        dual = generators_of_dual(rows, dim)
        return dual, generators_of_dual(dual, dim)
    dual, masks = _sorted_rays(*dd)
    canon = _facet_rows(rows, masks)
    return dual, generators_of_dual(dual, dim) if canon is None else canon


def cone_from_rays(rays, dim):
    facets, canon = _dual_pair(rays, dim)
    return QCone(dim, canon, facets)


def cone_from_facets(normals, dim):
    return QCone(dim, *_dual_pair(normals, dim))


def dual_cone(c: QCone) -> QCone:
    # both lists of a QCone are canonical, and each is the other's dual
    return QCone(c.dim, c.facets, c.rays)


def ray_sum(c: QCone):
    """The sum of the cone's rays, a point in its relative interior."""
    return tuple(sum(r[i] for r in c.rays) for i in range(c.dim))


def mu(v):
    """Smallest positive integer k with k*v a lattice point."""
    return lcm(*(Fraction(x).denominator for x in v))


# ---------------------------------------------------------------------------
# triangulation


def triangulate(cone: QCone):
    """Pulling triangulation into simplicial subcones (lists of rays); it
    builds a cone only for a face that is not simplicial."""
    r = rank(cone.rays)
    if len(cone.rays) == r:
        return [tuple(cone.rays)]
    v = cone.rays[0]
    cells = []
    for f in cone.facets:
        if dot(f, v) == 0:
            continue
        face = tuple(x for x in cone.rays if dot(f, x) == 0)
        if rank(face) != r - 1:
            continue
        subs = [face] if len(face) == r - 1 else triangulate(cone_from_rays(face, cone.dim))
        for s in subs:
            cells.append(tuple(sorted(s + (v,))))
    return sorted(set(cells))


def _parallelepiped_points(cell_rows):
    """Nonzero lattice points in {sum l_i r_i : 0 <= l_i < 1} (full rank)."""
    n = len(cell_rows)
    # the row HNF H of the cell is upper triangular, so the vectors t with
    # 0 <= t_i < H[i][i] are one representative of each coset of Z^n / L;
    # their product |det B| is 1 exactly on a unimodular cell
    h = hnf_basis(cell_rows)
    if all(h[i][i] == 1 for i in range(n)):
        return []
    den, scaled = scaled_inverse(cell_rows)
    pts = set()
    for t in product(*(range(h[i][i]) for i in range(n))):
        # den times the fractional part of t B^-1, in integers
        lam = [sum(t[i] * scaled[i][j] for i in range(n)) % den for j in range(n)]
        p = tuple(sum(lam[i] * cell_rows[i][j] for i in range(n)) // den for j in range(n))
        if any(p):
            pts.add(p)
    return sorted(pts)


def hilbert_basis(cone: QCone):
    """Unique minimal generating set of cone /\\ Z^n, sorted lexicographically.

    A full-dimensional cone is worked on as it is and builds no cone.  A
    cone that is not is rebuilt in a saturated basis of the lattice of its
    span, where it is full-dimensional, and its basis is mapped back.
    """
    if not cone.is_pointed():
        raise NonPointedCone(
            f"the cone with rays {cone.rays} is not pointed; a Hilbert basis needs one"
        )
    if not cone.rays:
        return ()
    ycone, span = cone, None
    normal = kernel_lattice(cone.rays)
    if normal:
        span = kernel_lattice(normal)
        ycone = cone_from_rays([solve_in_lattice(r, span) for r in cone.rays], len(span))
    r = ycone.dim
    candidates = set()
    for cell in triangulate(ycone):
        candidates.update(cell)
        candidates.update(_parallelepiped_points(list(cell)))
    candidates.discard(tuple([0] * r))
    cand = sorted(candidates)
    basis = []
    for h in cand:
        reducible = False
        for c in cand:
            if c == h:
                continue
            diff = tuple(x - y for x, y in zip(h, c))
            if any(diff) and ycone.contains(diff):
                reducible = True
                break
        if not reducible:
            basis.append(h)
    if span:
        basis = [tuple(dot(y, column) for column in zip(*span)) for y in basis]
    return tuple(sorted(basis))


def unimodular_triangulation(cone: QCone):
    """Refine into simplicial cones whose rays form a basis of Z^n.

    Iterated stellar subdivision at the shortest new lattice point of the
    worst cell, ties broken lexicographically; deterministic.
    """
    if not cone.is_full_dim():
        raise ValueError("unimodular_triangulation requires a full-dimensional cone")
    if not cone.is_pointed():
        raise NonPointedCone(
            f"the cone with rays {cone.rays} is not pointed; a unimodular triangulation needs one"
        )
    n = cone.dim
    cells = [tuple(c) for c in triangulate(cone)]
    while True:
        # the worst cell is the first, in sorted order, that is not unimodular:
        # the first with a nonzero point in its parallelepiped
        pts = next(filter(None, (_parallelepiped_points(list(c)) for c in sorted(cells))), None)
        if pts is None:
            break
        w = min(pts, key=lambda p: (sum(x * x for x in p), p))
        w = primitive(w)
        new_cells = []
        for cell in cells:
            # den * (coordinates of w in the cell's rays): only signs matter
            _, scaled = scaled_inverse(cell)
            lam = [sum(w[i] * scaled[i][j] for i in range(n)) for j in range(n)]
            if any(x < 0 for x in lam):
                new_cells.append(cell)
                continue
            replaced = False
            for i, l in enumerate(lam):
                if l > 0:
                    sub = tuple(sorted(cell[:i] + (w,) + cell[i + 1 :]))
                    new_cells.append(sub)
                    replaced = True
            if not replaced:
                new_cells.append(cell)
        cells = sorted(set(new_cells))
    return PolyhedralSubdivision(tuple(cone_from_rays(c, n) for c in sorted(cells)))


# ---------------------------------------------------------------------------
# tailed polyhedra


class TailedPolyhedron(NamedTuple):
    """conv(vertices) + tail cone, irredundant."""

    dim: int
    vertices: tuple
    tail: QCone


def tailed_polyhedron(vertices, tail: QCone):
    """conv(vertices) + tail, with the vertices that are vertices of it.

    ``vertices`` are rational points of width ``tail.dim``, repeats
    allowed.  On a pointed tail T a point is a vertex exactly when it is
    not in conv(other points) + T, so with two distinct points a and b, a
    is dropped exactly when a - b lies in T.  That test runs on the
    facets of T in integers, over the common denominator of the points,
    and no double description is needed.  Three or more points, or a
    tail that is not pointed, take the rays of height one of the cone
    over the points at height one and the rays of T at height zero.
    """
    dim = tail.dim
    verts = sorted({tuple(Fraction(x) for x in v) for v in vertices})
    if not verts:
        raise ValueError("a tailed polyhedron needs at least one vertex")
    if any(len(v) != dim for v in verts):
        raise ValueError(f"vertices of a width other than that of a tail in dimension {dim}")
    if len(verts) <= 2 and tail.is_pointed():
        if len(verts) == 2:
            scale = lcm(*(x.denominator for v in verts for x in v))
            a, b = ([x.numerator * (scale // x.denominator) for x in v] for v in verts)
            if tail.contains([x - y for x, y in zip(a, b)]):
                del verts[0]
            elif tail.contains([y - x for x, y in zip(a, b)]):
                del verts[1]
        return TailedPolyhedron(dim, tuple(verts), tail)
    homog = [primitive(v + (Fraction(1),)) for v in verts]
    homog += [tuple(r) + (0,) for r in tail.rays]
    # every generator has a last entry >= 0, so each ray of the cone does
    rays = cone_from_rays(homog, dim + 1).rays
    verts = [tuple(Fraction(x, r[-1]) for x in r[:-1]) for r in rays if r[-1]]
    return TailedPolyhedron(dim, tuple(sorted(verts)), tail)


# ---------------------------------------------------------------------------
# fans


class PolyhedralSubdivision(NamedTuple):
    cells: tuple

    def rays(self):
        seen = set()
        for c in self.cells:
            seen.update(c.rays)
        return tuple(sorted(seen))


def hyperplane_subdivision(ambient: QCone, hyperplanes) -> PolyhedralSubdivision:
    """Subdivide a full-dimensional pointed cone by a list of hyperplanes.

    An incremental double description (Fukuda and Prodon 1996) on one
    incidence table, whose rows are the ambient facets and then each
    distinct primitive plane other than +/- a facet normal, which never
    cuts.  A cell is its rays and its sides of the planes that cut it (a
    plane that does not cut a cell bounds no piece of it).  Each ray's
    values and tight rows are computed once, and that is exact:
    whether a ray is tight on a row does not depend on the cell, and the
    adjacency test of ``_crossing_rays`` on a cell reads only the rows
    valid for it, the ambient facets and the planes already done.  The
    facets of a final cell are its rows, turned to its side, whose sets of
    tight rays have at least dim - 1 rays and lie in no larger such set; a
    simplicial cell has no larger set, so each of its dim sets is a facet.
    """
    dim, nf = ambient.dim, len(ambient.facets)
    rows = list(ambient.facets)
    for h in map(primitive, hyperplanes):
        if any(h) and h not in rows and tuple(-x for x in h) not in rows:
            rows.append(h)
    rays, ids, values, masks = [], {}, [], []

    def ray_id(r):
        if r not in ids:
            ids[r] = len(rays)
            rays.append(r)
            values.append([dot(a, r) for a in rows])
            masks.append(sum(1 << k for k, x in enumerate(values[-1]) if x == 0))
        return ids[r]

    # a cell is (ray ids, bitmask of the cutting planes it is on the negative side of)
    cells = [([ray_id(r) for r in ambient.rays], 0)]
    for j in range(nf, len(rows)):
        bit, valid = 1 << j, (2 << j) - 1
        nxt = []
        for cell, neg in cells:
            vals = [values[i][j] for i in cell]
            if min(vals) >= 0 or max(vals) <= 0:
                nxt.append((cell, neg))
                continue
            cell_rays, cell_masks = [rays[i] for i in cell], [masks[i] & valid for i in cell]
            cut = [ray_id(r) for r in _crossing_rays(cell_rays, cell_masks, vals, bit, dim)[0]]
            nxt.append(([i for i, s in zip(cell, vals) if s >= 0] + cut, neg))
            nxt.append(([i for i, s in zip(cell, vals) if s <= 0] + cut, neg | bit))
        cells = nxt
    # row k -> bitmask of the rays tight on it
    on_row = [sum(1 << i for i, m in enumerate(masks) if m >> k & 1) for k in range(len(rows))]
    # each row and its negative, one for each side of a cutting plane
    sides = [(a, tuple(-x for x in a)) for a in rows]
    out = []
    for cell, neg in cells:
        inside = sum(1 << i for i in cell)
        sets = {k: s for k, t in enumerate(on_row) if (s := t & inside).bit_count() >= dim - 1}
        larger = [t for t in sets.values() if t.bit_count() >= dim]
        if larger:
            sets = {k: t for k, t in sets.items() if not any(t & m == t != m for m in larger)}
        facets = [sides[k][neg >> k & 1] for k in sets]
        out.append(QCone(dim, tuple(sorted(rays[i] for i in cell)), tuple(sorted(facets))))
    return PolyhedralSubdivision(tuple(sorted(out)))


def common_refinement(polys, ambient: QCone) -> PolyhedralSubdivision:
    """Coarsest common refinement of the polyhedra's normal fans in a
    full-dimensional ambient: per vertex v of P, each cell is cut by the
    normals w - v negative on one of its rays, so v minimizes <P, u> there."""
    if not ambient.is_full_dim():
        raise NonPointedCone("a normal fan needs a pointed tail cone")
    cells = [ambient]
    for p in polys:
        normals = [
            [primitive(tuple(a - b for a, b in zip(w, v))) for w in p.vertices if w != v]
            for v in p.vertices
        ]
        nxt, seen = [], set()
        for c in cells:
            for cut in normals:
                extra = [n for n in cut if any(dot(n, r) < 0 for r in c.rays)]
                piece = c if not extra else cone_from_facets(list(c.facets) + extra, ambient.dim)
                if piece.is_full_dim() and piece.rays not in seen:
                    seen.add(piece.rays)
                    nxt.append(piece)
        cells = nxt
    return PolyhedralSubdivision(tuple(sorted(cells, key=lambda c: c.rays)))
