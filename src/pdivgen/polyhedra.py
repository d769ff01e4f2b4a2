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
    det,
    hnf,
    identity,
    inverse,
    kernel_lattice,
    primitive,
    rank,
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
    """Extreme rays of the pointed cone {x : A x >= 0}; rank(A) == dim.

    Exact incremental double description (Motzkin, Raiffa, Thompson and
    Thrall 1953; Fukuda and Prodon 1996): start from the simplicial cone
    of dim independent rows, then cut by the other rows one at a time.
    Each ray carries the bitmask of the rows it is tight on; a ray on the
    positive side and one on the negative side are adjacent when their
    common tight set has at least dim - 2 rows and lies in the tight set
    of no third ray.
    """
    rows = _dedupe_sorted(tuple(r) for r in ineqs if any(r))
    if dim == 0:
        return ()
    if dim == 1:
        signs = {1 if r[0] > 0 else -1 for r in rows}
        if signs == {1}:
            return ((1,),)
        if signs == {-1}:
            return ((-1,),)
        return ()
    basis, rays = _simplicial_start(rows, dim)
    in_basis = sum(1 << k for k in basis)
    masks = [in_basis & ~(1 << k) for k in basis]
    for k, a in enumerate(rows):
        if in_basis >> k & 1:
            continue
        bit = 1 << k
        vals = [sum(map(mul, a, r)) for r in rays]
        new_rays = [r for r, s in zip(rays, vals) if s >= 0]
        new_masks = [m | bit if s == 0 else m for m, s in zip(masks, vals) if s >= 0]
        pos = [i for i, s in enumerate(vals) if s > 0]
        neg = [i for i, s in enumerate(vals) if s < 0]
        for p in pos:
            for n in neg:
                common = masks[p] & masks[n]
                if bin(common).count("1") < dim - 2 or any(
                    m & common == common and i != p and i != n
                    for i, m in enumerate(masks)
                ):
                    continue
                sp, sn = vals[p], -vals[n]
                new_rays.append(primitive([sp * y + sn * x for x, y in zip(rays[p], rays[n])]))
                new_masks.append(common | bit)
        rays, masks = new_rays, new_masks
    return tuple(sorted(rays))


def _simplicial_start(rows, dim):
    """The first dim independent rows and the rays of their simplicial cone.

    Fraction-free Gauss-Jordan on [A^T | I] takes the pivot columns in
    order, so they index the first dim independent rows B of A.  Each
    reduced row is (M A^T | M) with M B^T diagonal: row i of M, signed
    like its pivot, is the ray on which only row i of B is positive.
    """
    m = len(rows)
    a = [list(col) + [int(i == j) for j in range(dim)] for i, col in enumerate(zip(*rows))]
    basis = []
    for c in range(m):
        r = len(basis)
        piv = next((i for i in range(r, dim) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(dim):
            if i != r and a[i][c]:
                f, g = a[r][c], a[i][c]
                a[i] = primitive([f * x - g * y for x, y in zip(a[i], a[r])])
        basis.append(c)
        if len(basis) == dim:
            return basis, [
                primitive(row[m:] if row[k] > 0 else [-x for x in row[m:]])
                for row, k in zip(a, basis)
            ]
    raise ValueError("the inequalities do not have full rank")


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
        if rank(self.rays) < self.dim:
            return False
        return all(dot(f, point) > 0 for f in self.facets)

    def is_pointed(self):
        return rank(self.facets) == self.dim if self.facets else self.dim == 0

    def is_full_dim(self):
        return rank(self.rays) == self.dim if self.rays else self.dim == 0

    def span_rank(self):
        return rank(self.rays) if self.rays else 0


def cone_from_rays(rays, dim):
    rays = [tuple(primitive(r)) for r in rays if any(r)]
    facets = generators_of_dual(rays, dim)
    canon = generators_of_dual(facets, dim)
    return QCone(dim, canon, facets)


def cone_from_facets(normals, dim):
    normals = [tuple(primitive(n)) for n in normals if any(n)]
    rays = generators_of_dual(normals, dim)
    facets = generators_of_dual(rays, dim)
    return QCone(dim, rays, facets)


def dual_cone(c: QCone) -> QCone:
    rays = generators_of_dual(c.rays, c.dim)
    return QCone(c.dim, rays, generators_of_dual(rays, c.dim))


def mu(v):
    """Smallest positive integer k with k*v a lattice point."""
    return lcm(*(Fraction(x).denominator for x in v))


# ---------------------------------------------------------------------------
# triangulation


def triangulate(cone: QCone):
    """Pulling triangulation into simplicial subcones (lists of rays)."""
    return _triangulate_rays(cone.rays, cone.dim)


def _triangulate_rays(rays, dim):
    r = rank(rays)
    if len(rays) == r:
        return [tuple(rays)]
    c = cone_from_rays(rays, dim)
    v = c.rays[0]
    cells = []
    for f in c.facets:
        if dot(f, v) == 0:
            continue
        face = [x for x in c.rays if dot(f, x) == 0]
        if rank(face) != r - 1:
            continue
        for s in _triangulate_rays(tuple(face), dim):
            cells.append(tuple(sorted(s + (v,))))
    return sorted(set(cells))


def _span_lattice_basis(rays):
    """Saturated lattice basis of the rational span of the rays."""
    w = kernel_lattice(rays)
    if not w:
        return identity(len(rays[0]))
    return kernel_lattice(w)


def _parallelepiped_points(cell_rows):
    """Nonzero lattice points in {sum l_i r_i : 0 <= l_i < 1} (full rank)."""
    n = len(cell_rows)
    d = abs(det(cell_rows))
    if d == 1:
        return []
    # the row HNF H of the cell is upper triangular, so the vectors t with
    # 0 <= t_i < H[i][i] are one representative of each coset of Z^n / L
    h, _ = hnf(cell_rows)
    binv_rows = inverse(cell_rows)
    pts = set()
    for t in product(*(range(h[i][i]) for i in range(n))):
        lam = [sum(t[i] * binv_rows[i][j] for i in range(n)) for j in range(n)]
        frac = [x - x.__floor__() for x in lam]
        p = tuple(
            int(sum(frac[i] * cell_rows[i][j] for i in range(n))) for j in range(n)
        )
        if any(p):
            pts.add(p)
    return sorted(pts)


def hilbert_basis(cone: QCone):
    """Unique minimal generating set of cone /\\ Z^n, sorted lexicographically."""
    if not cone.is_pointed():
        raise NonPointedCone("hilbert_basis requires a pointed cone")
    if not cone.rays:
        return ()
    span = _span_lattice_basis(cone.rays)
    yrays = [solve_in_lattice(r, span) for r in cone.rays]
    r = len(span)
    ycone = cone_from_rays(yrays, r)
    candidates = set()
    for cell in _triangulate_rays(ycone.rays, r):
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
    out = [tuple(sum(y[i] * span[i][j] for i in range(r)) for j in range(cone.dim)) for y in basis]
    return tuple(sorted(out))


def unimodular_triangulation(cone: QCone):
    """Refine into simplicial cones whose rays form a basis of Z^n.

    Iterated stellar subdivision at the shortest new lattice point of the
    worst cell, ties broken lexicographically; deterministic.
    """
    if not cone.is_full_dim():
        raise ValueError("unimodular_triangulation requires a full-dimensional cone")
    n = cone.dim
    cells = [tuple(c) for c in triangulate(cone)]
    while True:
        target = None
        for cell in sorted(cells):
            if abs(det(cell)) != 1:
                target = cell
                break
        if target is None:
            break
        pts = _parallelepiped_points(list(target))
        w = min(pts, key=lambda p: (sum(x * x for x in p), p))
        w = primitive(w)
        new_cells = []
        for cell in cells:
            inv = inverse(cell)
            lam = [sum(w[i] * inv[i][j] for i in range(n)) for j in range(n)]
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
    return PolyhedralSubdivision(
        cone, tuple(cone_from_rays(c, n) for c in sorted(cells))
    )


# ---------------------------------------------------------------------------
# tailed polyhedra


class TailedPolyhedron(NamedTuple):
    """conv(vertices) + tail cone, irredundant."""

    dim: int
    vertices: tuple
    tail: QCone

    def support(self, u):
        """min <P, u>; requires u in dual(tail)."""
        return min(dot(v, u) for v in self.vertices)

    def __add__(self, other):
        return minkowski_sum(self, other)


def tailed_polyhedron(vertices, tail_rays, dim):
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


def minkowski_sum(p: TailedPolyhedron, q: TailedPolyhedron) -> TailedPolyhedron:
    if p.dim != q.dim:
        raise ValueError("ambient dimension mismatch")
    verts = [tuple(a + b for a, b in zip(v, w)) for v in p.vertices for w in q.vertices]
    return tailed_polyhedron(verts, list(p.tail.rays) + list(q.tail.rays), p.dim)


def point_polyhedron(v, tail: QCone) -> TailedPolyhedron:
    return tailed_polyhedron([v], tail.rays, tail.dim)


# ---------------------------------------------------------------------------
# fans


class PolyhedralSubdivision(NamedTuple):
    ambient: QCone
    maximal_cells: tuple

    def all_rays(self):
        seen = set()
        for c in self.maximal_cells:
            seen.update(c.rays)
        return tuple(sorted(seen))


def trivial_subdivision(ambient: QCone) -> PolyhedralSubdivision:
    return PolyhedralSubdivision(ambient, (ambient,))


def normal_fan(p: TailedPolyhedron) -> PolyhedralSubdivision:
    """Cones of linearity of u -> min<P, u>, subdividing dual(tail)."""
    if not p.tail.is_pointed():
        raise NonPointedCone("normal_fan needs a pointed tail cone")
    ambient = dual_cone(p.tail)
    full = ambient.span_rank()
    cells = []
    seen = set()
    for v in p.vertices:
        normals = [
            primitive(tuple(a - b for a, b in zip(w, v)))
            for w in p.vertices
            if w != v
        ]
        cell = cone_from_facets(list(ambient.facets) + normals, p.dim)
        if cell.span_rank() == full and cell.rays not in seen:
            seen.add(cell.rays)
            cells.append(cell)
    return PolyhedralSubdivision(ambient, tuple(sorted(cells, key=lambda c: c.rays)))


def hyperplane_subdivision(ambient: QCone, hyperplanes) -> PolyhedralSubdivision:
    """Subdivide a full-dimensional pointed cone by a list of hyperplanes.

    A cell with rays strictly on both sides of a hyperplane is replaced by
    its two halves, each cut out by the cell's facets and one halfspace.
    """
    cells = [ambient]
    seen_h = set()
    for h in hyperplanes:
        h = primitive(h)
        neg_h = tuple(-x for x in h)
        key = min(h, neg_h)
        if key in seen_h:
            continue
        seen_h.add(key)
        nxt = []
        for c in cells:
            vals = [dot(h, r) for r in c.rays]
            if all(v >= 0 for v in vals) or all(v <= 0 for v in vals):
                nxt.append(c)
            else:
                nxt.append(cone_from_facets(list(c.facets) + [h], c.dim))
                nxt.append(cone_from_facets(list(c.facets) + [neg_h], c.dim))
        cells = nxt
    uniq = {}
    for c in cells:
        uniq.setdefault(c.rays, c)
    return PolyhedralSubdivision(
        ambient, tuple(uniq[k] for k in sorted(uniq))
    )


def common_refinement(subs, ambient: QCone) -> PolyhedralSubdivision:
    """Coarsest common refinement of the subdivisions, cut down to ambient."""
    full = ambient.span_rank()
    cells = [ambient]
    for sub in subs:
        nxt = []
        seen = set()
        for c in cells:
            for f in sub.maximal_cells:
                extra = [n for n in f.facets if any(dot(n, r) < 0 for r in c.rays)]
                piece = c if not extra else cone_from_facets(
                    list(c.facets) + extra, ambient.dim
                )
                if piece.span_rank() == full and piece.rays not in seen:
                    seen.add(piece.rays)
                    nxt.append(piece)
        cells = nxt
    return PolyhedralSubdivision(ambient, tuple(sorted(cells, key=lambda c: c.rays)))
