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
        if rank(self.rays) < self.dim:
            return False
        return all(dot(f, point) > 0 for f in self.facets)

    def is_pointed(self):
        return rank(self.facets) == self.dim if self.facets else self.dim == 0

    def is_full_dim(self):
        return rank(self.rays) == self.dim if self.rays else self.dim == 0

    def span_rank(self):
        return rank(self.rays) if self.rays else 0


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
    """Unique minimal generating set of cone /\\ Z^n, sorted lexicographically."""
    if not cone.is_pointed():
        raise NonPointedCone(
            f"the cone with rays {cone.rays} is not pointed; a Hilbert basis needs one"
        )
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


# ---------------------------------------------------------------------------
# fans


class PolyhedralSubdivision(NamedTuple):
    cells: tuple

    def rays(self):
        seen = set()
        for c in self.cells:
            seen.update(c.rays)
        return tuple(sorted(seen))


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
    return PolyhedralSubdivision(tuple(sorted(cells, key=lambda c: c.rays)))


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
                nxt.extend(_halves(c, h, neg_h, vals))
        cells = nxt
    uniq = {}
    for c in cells:
        uniq.setdefault(c.rays, c)
    return PolyhedralSubdivision(tuple(uniq[k] for k in sorted(uniq)))


def _halves(c: QCone, h, neg_h, vals):
    """The two halves of a full-dimensional pointed cell cut by h, from
    one double-description step on its rays and facets.

    ``vals`` are the values of h on the cell's rays, of both signs.  The
    halves share the new rays; the facets of each are the old facets that
    stay facets, and h or -h.
    """
    bit = 1 << len(c.facets)
    masks = [sum(1 << k for k, f in enumerate(c.facets) if dot(f, r) == 0) for r in c.rays]
    cut_rays, cut_masks = _crossing_rays(c.rays, masks, vals, bit, c.dim)
    halves = []
    for sign, normal in ((1, h), (-1, neg_h)):
        side = [sign * s >= 0 for s in vals]
        rays, side_masks = _sorted_rays(
            [r for r, keep in zip(c.rays, side) if keep] + cut_rays,
            [m | bit if s == 0 else m for m, s, keep in zip(masks, vals, side) if keep]
            + cut_masks,
        )
        facets = _facet_rows(c.facets + (normal,), side_masks)
        halves.append(QCone(c.dim, rays, tuple(sorted(facets))))
    return halves


def common_refinement(subs, ambient: QCone) -> PolyhedralSubdivision:
    """Coarsest common refinement of the subdivisions, cut down to ambient."""
    full = ambient.span_rank()
    cells = [ambient]
    for sub in subs:
        nxt = []
        seen = set()
        for c in cells:
            for f in sub.cells:
                extra = [n for n in f.facets if any(dot(n, r) < 0 for r in c.rays)]
                piece = c if not extra else cone_from_facets(
                    list(c.facets) + extra, ambient.dim
                )
                if piece.span_rank() == full and piece.rays not in seen:
                    seen.add(piece.rays)
                    nxt.append(piece)
        cells = nxt
    return PolyhedralSubdivision(tuple(sorted(cells, key=lambda c: c.rays)))
