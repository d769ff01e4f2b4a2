"""Cones, polyhedra, Hilbert bases, subdivisions."""

import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import brute_hilbert_basis, det, normal_fan, support
from pdivgen import polyhedra
from pdivgen.intlinalg import identity, rank
from pdivgen.polyhedra import (
    NonPointedCone,
    QCone,
    _parallelepiped_points,
    _simplicial_start,
    common_refinement,
    cone_from_facets,
    cone_from_rays,
    dot,
    dual_cone,
    hilbert_basis,
    hyperplane_subdivision,
    tailed_polyhedron,
    triangulate,
    unimodular_triangulation,
)


def random_pointed_cone(rng, dim):
    while True:
        rays = [
            tuple(rng.randint(-5, 5) for _ in range(dim)) for _ in range(dim)
        ]
        if any(not any(r) for r in rays):
            continue
        if abs(det(rays)) == 0:
            continue
        return cone_from_rays(rays, dim)


def test_cone_canonicalization():
    a = cone_from_rays([(2, 0), (0, 3), (1, 1)], 2)
    b = cone_from_rays([(0, 1), (1, 0)], 2)
    assert a.rays == b.rays == ((0, 1), (1, 0))
    assert a.facets == b.facets


def test_cone_membership():
    c = cone_from_rays([(1, 0), (1, 2)], 2)
    assert c.contains((1, 1))
    assert c.contains((0, 0))
    assert not c.contains((0, 1))
    assert c.contains_interior((2, 1))
    assert not c.contains_interior((1, 0))


def test_vectors_of_different_widths_are_rejected():
    with pytest.raises(ValueError):
        dot((1, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        cone_from_rays([(1, 0), (0, 1)], 2).contains((1, 1, -5))
    # the whole plane has no facet normal to check the width against
    plane = cone_from_rays([(1, 0), (-1, 0), (0, 1), (0, -1)], 2)
    assert plane.facets == () and plane.contains((-3, 0))
    for point in ((1, 2, 3), (1,), ()):
        with pytest.raises(ValueError):
            plane.contains(point)


def test_an_interior_test_rejects_a_point_of_another_width():
    # the whole plane has no facet, and a ray is not full-dimensional, so
    # neither reaches dot
    plane = cone_from_rays([(1, 0), (0, 1), (-1, 0), (0, -1)], 2)
    assert plane.contains_interior((1, 2))
    for cone in (plane, cone_from_rays([(1, 0)], 2), cone_from_rays([(1, 0), (0, 1)], 2)):
        for point in ((1, 2, 3), (1,)):
            with pytest.raises(ValueError, match=f"point of width {len(point)} in a cone of dimension 2"):
                cone.contains_interior(point)


def test_dual_cone_known():
    c = cone_from_rays([(1, 0), (1, 2)], 2)
    d = dual_cone(c)
    assert set(d.rays) == {(0, 1), (2, -1)}


def test_cone_from_facets_round_trip():
    c = cone_from_rays([(1, 0, 0), (0, 1, 0), (1, 1, 2)], 3)
    again = cone_from_facets(c.facets, 3)
    assert again.rays == c.rays


def test_dual_involution_random():
    rng = random.Random(7)
    for _ in range(25):
        dim = rng.choice((2, 3))
        c = random_pointed_cone(rng, dim)
        assert dual_cone(dual_cone(c)).rays == c.rays


def test_non_pointed_rejected():
    half_plane = cone_from_rays([(1, 0), (-1, 0), (0, 1)], 2)
    with pytest.raises(NonPointedCone):
        hilbert_basis(half_plane)
    # a unimodular triangulation of it had cells, but no cell covered it
    with pytest.raises(NonPointedCone, match=r"\(\(-1, 0\), \(0, 1\), \(1, 0\)\) is not pointed"):
        unimodular_triangulation(half_plane)


def test_simplicial_start_needs_full_rank():
    # the first two independent rows, and the ray each one alone is positive on
    assert _simplicial_start([(2, 0), (4, 0), (1, 1)], 2) == ([0, 2], [(1, -1), (0, 1)])
    for rows in ([(0, 0)], [(1, 0), (2, 0)], []):
        assert _simplicial_start(rows, 2) is None


def test_hilbert_basis_simple():
    c = cone_from_rays([(1, 0), (1, 2)], 2)
    assert sorted(hilbert_basis(c)) == [(1, 0), (1, 1), (1, 2)]


def test_hilbert_basis_matches_brute_force():
    rng = random.Random(11)
    for _ in range(8):
        dim = rng.choice((2, 3))
        c = random_pointed_cone(rng, dim)
        assert sorted(hilbert_basis(c)) == brute_hilbert_basis(c.rays, dim)


def test_hilbert_basis_of_a_cone_that_is_not_full_dimensional_matches_brute_force():
    # a cone in Z^k sent into Z^n by the first k rows of a unimodular
    # matrix spans a saturated sublattice, so its Hilbert basis is the image
    # of the brute-force one in Z^k
    rng = random.Random(17)
    for k, n in ((2, 3), (3, 4)) * 3:
        small = random_pointed_cone(rng, k)
        rows = [list(r) for r in identity(n)]
        for _ in range(2 * n):
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-2, 2)
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]

        def embed(v):
            return tuple(dot(v, column) for column in zip(*rows[:k]))

        cone = cone_from_rays([embed(r) for r in small.rays], n)
        assert cone.span_rank() == k
        expected = tuple(sorted(embed(h) for h in brute_hilbert_basis(small.rays, k)))
        assert hilbert_basis(cone) == expected


def test_triangulations():
    c = cone_from_rays([(1, 0), (1, 1), (0, 1)], 2)
    tris = triangulate(c)
    assert sum(1 for _ in tris) >= 1
    sub = unimodular_triangulation(cone_from_rays([(1, 0), (1, 2)], 2))
    for cell in sub.cells:
        assert abs(det(cell.rays)) == 1


def _cone_builds(f, cone):
    with mock.patch.object(polyhedra, "cone_from_rays", wraps=polyhedra.cone_from_rays) as build:
        result = f(cone)
    return result, build.call_count


# a square pyramid is not simplicial, and each of its facets is
_PYRAMID = cone_from_rays([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], 3)


def test_triangulate_builds_a_cone_only_for_a_face_that_is_not_simplicial():
    cells, builds = _cone_builds(triangulate, _PYRAMID)
    assert cells == [((-1, 0, 1), (0, -1, 1), (1, 0, 1)), ((-1, 0, 1), (0, 1, 1), (1, 0, 1))]
    assert builds == 0
    # the first ray of this one is the apex over a square facet, which is
    # the one face cone built
    apex = cone_from_rays(
        [(0, 1, 0, 1), (0, 0, 1, 1), (0, -1, 0, 1), (0, 0, -1, 1), (-1, 0, 0, 1)], 4
    )
    cells, builds = _cone_builds(triangulate, apex)
    assert cells == [
        ((-1, 0, 0, 1), (0, -1, 0, 1), (0, 0, -1, 1), (0, 1, 0, 1)),
        ((-1, 0, 0, 1), (0, -1, 0, 1), (0, 0, 1, 1), (0, 1, 0, 1)),
    ]
    assert builds == 1


def test_hilbert_basis_builds_only_the_cone_in_its_span_lattice():
    # a full-dimensional cone is its own cone in its span lattice
    basis, builds = _cone_builds(hilbert_basis, _PYRAMID)
    assert basis == ((-1, 0, 1), (0, -1, 1), (0, 0, 1), (0, 1, 1), (1, 0, 1))
    assert builds == 0
    # the wedge (1, 0) (1, 3) in the plane z = x of R^3
    flat = cone_from_rays([(1, 0, 1), (1, 3, 1)], 3)
    basis, builds = _cone_builds(hilbert_basis, flat)
    assert basis == ((1, 0, 1), (1, 1, 1), (1, 2, 1), (1, 3, 1))
    assert builds == 1


def test_unimodular_triangulation_builds_only_its_cells():
    sub, builds = _cone_builds(unimodular_triangulation, _PYRAMID)
    assert len(sub.cells) == 4
    assert builds == 4


@pytest.mark.parametrize(
    "rays, cells",
    [
        (
            [(1, 0), (1, 5)],
            [((1, 0), (1, 1)), ((1, 1), (1, 2)), ((1, 2), (1, 3)), ((1, 3), (1, 4)),
             ((1, 4), (1, 5))],
        ),
        (
            [(2, -3), (1, 4)],
            [((1, -1), (1, 0)), ((1, -1), (2, -3)), ((1, 0), (1, 1)), ((1, 1), (1, 2)),
             ((1, 2), (1, 3)), ((1, 3), (1, 4))],
        ),
        (
            [(1, 0, 0), (0, 1, 0), (1, 1, 3)],
            [((0, 1, 0), (1, 0, 0), (1, 1, 1)), ((0, 1, 0), (1, 1, 1), (1, 1, 2)),
             ((0, 1, 0), (1, 1, 2), (1, 1, 3)), ((1, 0, 0), (1, 1, 1), (1, 1, 2)),
             ((1, 0, 0), (1, 1, 2), (1, 1, 3))],
        ),
        (
            [(1, 0, 0), (0, 1, 0), (2, 3, 5)],
            [((0, 1, 0), (1, 0, 0), (1, 1, 1)), ((0, 1, 0), (1, 1, 1), (1, 2, 2)),
             ((0, 1, 0), (1, 2, 2), (2, 3, 5)), ((1, 0, 0), (1, 1, 1), (2, 2, 3)),
             ((1, 0, 0), (2, 2, 3), (2, 3, 5)), ((1, 1, 1), (1, 2, 2), (2, 3, 4)),
             ((1, 1, 1), (2, 2, 3), (2, 3, 5)), ((1, 1, 1), (2, 3, 4), (2, 3, 5)),
             ((1, 2, 2), (2, 3, 4), (2, 3, 5))],
        ),
    ],
)
def test_unimodular_triangulation_over_several_subdivision_steps(rays, cells):
    # each cone needs several stellar steps; the pinned cells fix which cell
    # and which lattice point every step picks
    sub = unimodular_triangulation(cone_from_rays(rays, len(rays[0])))
    assert all(abs(det(cell.rays)) == 1 for cell in sub.cells)
    assert [cell.rays for cell in sub.cells] == cells


def test_tailed_polyhedron_support_and_sum():
    tail = cone_from_rays([(1, 0), (0, 1)], 2)
    p = tailed_polyhedron([(0, 0), (1, -1)], tail)
    assert len(p.vertices) == 2
    assert support(p, (1, 1)) == 0
    assert support(p, (1, 2)) == -1


def test_normal_fan_of_segment():
    tail = cone_from_rays([(1, 0), (0, 1)], 2)
    p = tailed_polyhedron([(0, 0), (1, -1)], tail)
    fan = normal_fan(p)
    assert len(fan.cells) == 2


def test_common_refinement_refuses_an_ambient_that_is_not_full_dimensional():
    flat = cone_from_rays([(1, 0, 0), (0, 1, 0)], 3)
    p = tailed_polyhedron([(0, 0, 0), (1, -1, 0)], dual_cone(flat))
    with pytest.raises(NonPointedCone, match="needs a pointed tail cone"):
        common_refinement([p], flat)


def test_hyperplane_subdivision_covers_and_is_disjoint():
    ambient = cone_from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], 3)
    cuts = [(1, -1, 0), (0, 1, -1), (1, 1, -2)]
    # (1, 1, 1) meets the cone only at the origin, so it leaves every cell whole
    miss = (1, 1, 1)
    assert hyperplane_subdivision(ambient, [miss]).cells == (ambient,)
    cut_cells = hyperplane_subdivision(ambient, cuts).cells
    with_miss = hyperplane_subdivision(ambient, [cuts[0], miss] + cuts[1:])
    assert with_miss.cells == cut_cells
    for planes in ([miss], cuts):
        _check_covers_and_is_disjoint(ambient, planes)


def _check_covers_and_is_disjoint(ambient, planes):
    rng = random.Random(3)
    cells = hyperplane_subdivision(ambient, planes).cells
    for _ in range(300):
        pt = tuple(
            sum(rng.randint(0, 9) * r[i] for r in ambient.rays) for i in range(3)
        )
        hits = [c for c in cells if c.contains(pt)]
        assert hits, pt
        strict = [c for c in cells if c.contains_interior(pt)]
        assert len(strict) <= 1
    # every cell refines the sign pattern of every plane
    for c in cells:
        sample = tuple(sum(r[i] for r in c.rays) for i in range(3))
        for h in planes:
            s = dot(h, sample)
            for r in c.rays:
                assert dot(h, r) * s >= 0


@st.composite
def _cone_and_segments(draw):
    """A pointed full-dimensional cone in dimension 2-5 and 1-4 segments."""
    dim = draw(st.integers(min_value=2, max_value=5))
    vec = st.lists(st.integers(min_value=-3, max_value=3), min_size=dim, max_size=dim)
    cone = cone_from_rays(draw(st.lists(vec, min_size=dim, max_size=dim + 2)), dim)
    assume(cone.is_full_dim() and cone.is_pointed())
    segment = st.tuples(vec, vec).filter(lambda s: s[0] != s[1])
    return cone, draw(st.lists(segment, min_size=1, max_size=4))


@given(_cone_and_segments())
@example((cone_from_rays([(-1, 1), (1, 1)], 2), [((-1, 1), (1, 1))]))
@settings(max_examples=60, deadline=None)
def test_common_refinement_matches_hyperplane_path(case):
    ambient, segments = case
    tail = dual_cone(ambient)
    polys = [tailed_polyhedron(s, tail) for s in segments]
    planes = [tuple(a - b for a, b in zip(*s)) for s in segments]
    hyp = hyperplane_subdivision(ambient, planes).cells
    ref = common_refinement(polys, ambient).cells
    assert [(c.rays, c.facets) for c in hyp] == [(c.rays, c.facets) for c in ref]


def _brute_parallelepiped_points(rows):
    """Lattice points p != 0 of the bounding box with p = l B, 0 <= l_i < 1.

    l_i = det(B with row i replaced by p) / det(B) by Cramer's rule.
    """
    n = len(rows)
    d = det(rows)
    box = [
        range(sum(min(0, r[j]) for r in rows), sum(max(0, r[j]) for r in rows) + 1)
        for j in range(n)
    ]
    pts = []
    for p in itertools.product(*box):
        lam = [Fraction(det(rows[:i] + [list(p)] + rows[i + 1 :]), d) for i in range(n)]
        if any(p) and all(0 <= x < 1 for x in lam):
            pts.append(p)
    return pts


@given(
    st.integers(min_value=2, max_value=3).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-4, max_value=4), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
@settings(max_examples=80, deadline=None)
def test_parallelepiped_points_match_brute_force(rows):
    assume(det(rows) != 0)
    assert _parallelepiped_points(rows) == _brute_parallelepiped_points(rows)
