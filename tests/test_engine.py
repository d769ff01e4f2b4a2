"""The general pipeline: ray sections, completion, pruning, normalization."""

import gc
import random

import pytest

from helpers import (
    brute_hilbert_basis,
    plane_pdivisor,
    plane_variety,
    recursive_nn_decompositions,
    thirteen_generators,
)
from pdivgen import engine
from pdivgen.engine import (
    GradedElement,
    _interior_ray,
    _nn_decompositions,
    algebra_membership,
    find_k_rho,
    interior_lattice_basis,
    reduce_generators,
    run_general,
)
from pdivgen.pdivisor import IterationLimitExceeded, PDivisor
from pdivgen.intlinalg import det
from pdivgen.polyhedra import cone_from_rays
from pdivgen.varieties import PointBase, ffe, sections_of_floor
from pdivgen.mpoly import MPoly


def test_cached_key_keeps_equality_and_hash():
    x = MPoly.variable(3, 0)
    a = GradedElement(ffe(x * 2, [("D", 1)]), (0, 1))
    key = a.key()
    assert a.key() is key
    assert key == GradedElement(ffe(x, [("D", 1)]), (0, 1)).key()
    fresh = GradedElement(ffe(x * 2, [("D", 1)]), (0, 1))
    assert a == fresh and hash(a) == hash(fresh)
    assert fresh in {a} and a.key() == fresh.key()
    assert a != GradedElement(ffe(x * 2, [("D", 1)]), (1, 1))


def test_find_k_rho_plane_example():
    d = plane_pdivisor()
    k, basis = find_k_rho(d, (-1, 1))
    assert k == 2
    assert basis.dimension == 10
    k, basis = find_k_rho(d, (1, 1))
    assert k == 2
    assert basis.dimension == 10


def test_known_section_dimensions():
    d = plane_pdivisor()
    y = d.variety
    assert sections_of_floor(y, d.evaluate((-2, 2))).dimension == 10
    assert sections_of_floor(y, d.evaluate((0, 2))).dimension == 55


def test_run_general_plane_example():
    d = plane_pdivisor()
    result = run_general(d.variety, d)
    report = dict(
        line.split(": ") for line in result.report if ": " in line
    )
    assert report["linearity cells"] == "2"
    assert report["subdivision rays"] == "3"
    assert report["raw pool size"] == "77"
    assert result.normalization_status == "ExportedForNormalization"
    weights = {e.weight for e in result.elements}
    assert weights <= {(-2, 2), (0, 2), (2, 2), (0, 1), (1, 1), (-1, 1), (2, 1)}


def test_thirteen_generators_lie_in_computed_algebra():
    d = plane_pdivisor()
    y = d.variety
    result = run_general(y, d)
    for g in thirteen_generators(y):
        assert algebra_membership(y, g, result.elements)


def test_algebra_membership_negative():
    y = plane_variety()
    x = MPoly.variable(3, 0)
    one = MPoly.constant(3, 1)
    gens = [GradedElement(ffe(one), (0, 1))]
    target = GradedElement(ffe(x**3, [("D", 1)]), (1, 1))
    assert not algebra_membership(y, target, gens)


def test_reduce_generators_drops_products():
    y = plane_variety()
    one = MPoly.constant(3, 1)
    a = GradedElement(ffe(one), (0, 1))
    b = GradedElement(ffe(one), (1, 1))
    prod = GradedElement(ffe(one), (1, 2))
    reduced = reduce_generators(y, [a, b, prod])
    assert {e.weight for e in reduced} == {(0, 1), (1, 1)}


def test_point_base_recovers_hilbert_basis():
    rays = [(2, -1), (0, 1)]
    cone = cone_from_rays(rays, 2)
    d = PDivisor(PointBase(), cone, {})
    result = run_general(d.variety, d)
    assert result.normalization_status in ("Normal", "SaturatedToric")
    weights = sorted(e.weight for e in result.elements)
    assert weights == brute_hilbert_basis(cone.rays, 2)


def test_point_base_random_cones_match_oracle():
    rng = random.Random(5)
    for _ in range(6):
        while True:
            rays = [tuple(rng.randint(-4, 4) for _ in range(2)) for _ in range(2)]
            try:
                cone = cone_from_rays(rays, 2)
            except ValueError:
                continue
            if len(cone.rays) == 2 and det(cone.rays) != 0:
                break
        d = PDivisor(PointBase(), cone, {})
        result = run_general(d.variety, d)
        weights = sorted(e.weight for e in result.elements)
        assert weights == brute_hilbert_basis(cone.rays, 2)


def test_interior_lattice_basis_needs_a_large_push():
    # the lattice vector (5, 3, 0) enters this cone only after adding 66
    # multiples of the interior point (-12, -7, -9)
    cone = cone_from_rays([(-3, -5, -1), (-5, -5, -3), (-4, 3, -5)], 3)
    basis = interior_lattice_basis(cone)
    assert basis[1] == (5 - 66 * 12, 3 - 66 * 7, 0 - 66 * 9)
    assert abs(det(basis)) == 1
    assert all(cone.contains(b) for b in basis)
    d = PDivisor(PointBase(), cone, {})
    weights = sorted(e.weight for e in run_general(d.variety, d).elements)
    assert weights == brute_hilbert_basis(cone.rays, 3)


def test_interior_lattice_basis_rejects_a_flat_cone():
    flat = cone_from_rays([(1, 0, 0), (0, 1, 0)], 3)
    with pytest.raises(IterationLimitExceeded):
        interior_lattice_basis(flat)


def test_interior_ray_falls_back_on_a_cone_that_is_not_pointed(monkeypatch):
    assert _interior_ray(cone_from_rays([(1, 0), (1, 2)], 2)) == (1, 1)
    # hilbert_basis rejects the half-plane; the sum of its rays is used
    half = cone_from_rays([(1, 0), (-1, 0), (0, 1)], 2)
    assert _interior_ray(half) == (0, 1)

    def broken(cone):
        raise ZeroDivisionError

    monkeypatch.setattr(engine, "hilbert_basis", broken)
    with pytest.raises(ZeroDivisionError):
        _interior_ray(half)


def test_nn_decompositions_leave_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        out = _nn_decompositions((2, 2), [(1, 0), (0, 1), (1, 1)])
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert out == [
        ((0, 1), (0, 1), (1, 0), (1, 0)),
        ((0, 1), (1, 0), (1, 1)),
        ((1, 1), (1, 1)),
    ]


def test_nn_decompositions_match_the_recursive_search():
    rng = random.Random(5)
    for _ in range(60):
        dim = rng.choice((2, 3))
        weights = [tuple(rng.randint(0, 2) for _ in range(dim)) for _ in range(4)]
        weights = [w for w in weights if any(w)]
        u = tuple(rng.randint(0, 6) for _ in range(dim))
        # small limits cut the search off part way
        for limit in (1, 5, 30, 20000):
            assert _nn_decompositions(u, weights, limit) == recursive_nn_decompositions(
                u, weights, limit
            )
