"""Shared builders, golden data, and independent oracles for the tests."""

from fractions import Fraction
from itertools import combinations
from itertools import product as iproduct

from pdivgen.engine import GradedElement
from pdivgen.intlinalg import kernel_lattice, primitive, rref
from pdivgen.mpoly import MPoly
from pdivgen.pdivisor import PDivisor
from pdivgen.polyhedra import cone_from_rays, dot, dual_cone, tailed_polyhedron
from pdivgen.varieties import ProjectiveSpace, ffe


# ---------------------------------------------------------------------------
# the running example: the plane with two marked cubics


def plane_variety() -> ProjectiveSpace:
    y = ProjectiveSpace(2, ("x", "y", "z"))
    x, yy, z = (MPoly.variable(3, i) for i in range(3))
    y.register_divisor("D", x * yy * z)
    y.register_divisor("E", (yy - z) * (x - z) * (x - yy))
    return y


def plane_pdivisor(y=None) -> PDivisor:
    if y is None:
        y = plane_variety()
    omega = cone_from_rays([(-1, 1), (1, 1)], 2)
    tail = dual_cone(omega)
    coeff_d = tailed_polyhedron([(Fraction(0), Fraction(1, 2))], tail.rays, 2)
    coeff_e = tailed_polyhedron([(-1, 1), (1, 1)], tail.rays, 2)
    return PDivisor(y, omega, {"D": coeff_d, "E": coeff_e})


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
    return len(rref(vecs)[1]) == len(rref(vecs[:-1])[1])


def fraction_span_dimension(y, elements):
    """``varieties.span_dimension`` as the rank of a Fraction rref."""
    if not elements:
        return 0
    return len(rref(_fraction_numerator_vectors(y, elements))[1])


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
