"""The general pipeline: ray sections, completion, pruning, normalization."""

import gc
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    brute_hilbert_basis,
    plane_pdivisor,
    plane_variety,
    recursive_nn_decompositions,
    thirteen_generators,
)
from pdivgen import cli, coxs5, engine, pdivisor, polyhedra, torus
from pdivgen.cli import build_pdivisor, build_variety, parse_job
from pdivgen.coxs5 import run_cox
from pdivgen.engine import (
    GradedElement,
    _interior_ray,
    _nn_decompositions,
    _saturate_semigroup,
    algebra_membership,
    extended_vector,
    find_k_rho,
    interior_lattice_basis,
    quotient_field_complete,
    reduce_generators,
    run_general,
    weight_lattice_completion,
    zariski_generators,
)
from pdivgen.pdivisor import IterationLimitExceeded, PDivisor, linearity_subdivision
from pdivgen.intlinalg import det, kernel_lattice, rank, solve_in_lattice
from pdivgen.polyhedra import (
    NonPointedCone,
    cone_from_rays,
    dot,
    dual_cone,
    hilbert_basis,
    tailed_polyhedron,
)
from pdivgen.varieties import PointBase, ffe, sections, sections_of_floor
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


def test_each_subdivision_ray_is_harvested_once():
    # the plane's two cells share the ray (0, 1)
    d = plane_pdivisor()
    with mock.patch.object(engine, "find_k_rho", wraps=find_k_rho) as spy, \
            mock.patch.object(PDivisor, "evaluate", autospec=True, side_effect=PDivisor.evaluate) as evaluate:
        run_general(d.variety, d)
    assert [c.args[1] for c in spy.call_args_list] == [(-1, 1), (0, 1), (1, 1)]
    # one evaluation per ray serves its search and its sections; the
    # other two come from the weight lattice completion
    assert evaluate.call_count == 5


def test_find_k_rho_plane_example():
    d = plane_pdivisor()
    y = d.variety
    for rho in ((-1, 1), (1, 1)):
        k, base = find_k_rho(d, rho)
        assert k == 2
        assert base == d.evaluate(rho)
        assert len(sections(y, base * k)) == 10


def test_known_section_dimensions():
    d = plane_pdivisor()
    y = d.variety
    assert len(sections_of_floor(y, d.evaluate((-2, 2)))) == 10
    assert len(sections_of_floor(y, d.evaluate((0, 2)))) == 55


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


def test_run_general_restricts_to_no_simplex():
    job = parse_job(Path("jobs/p2.pdiv").read_text())
    y = build_variety(job)
    d = build_pdivisor(job, y)
    built = []
    init = PDivisor.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    with mock.patch.object(pdivisor, "restrict", wraps=pdivisor.restrict) as restrict:
        with mock.patch.object(PDivisor, "__init__", counting_init):
            run_general(y, d)
    # ray sections are read from d itself: no restriction D|simplex is built
    assert restrict.call_count == 0
    assert built == []


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


def test_reduce_generators_builds_each_pruning_cone_once():
    d = plane_pdivisor()
    y = d.variety
    pool = run_general(y, d).elements
    with mock.patch.object(engine, "cone_from_rays", wraps=engine.cone_from_rays) as build:
        reduce_generators(y, pool)
    # one cone of all the pool's weights prunes every search
    assert build.call_count == 1
    assert sorted(build.call_args.args[0]) == sorted(e.weight for e in pool)


def test_normalize_or_export_takes_the_left_kernel_once():
    d = plane_pdivisor()
    y = d.variety
    elements = run_general(y, d).elements
    with mock.patch.object(engine, "kernel_lattice", wraps=engine.kernel_lattice) as ker:
        result = engine.normalize_or_export(y, elements)
    assert ker.call_count == 1
    golden = Path("perfbench/golden/plane-general.txt").read_text()
    assert result.presentation.startswith("# presentation")
    assert result.presentation in golden


def test_the_left_kernel_of_a_975_section_pool_is_in_hermite_form():
    # weight cone (0,-1) (2,1), D = (2,-4), E = (4/3,-2/3): 975 sections at
    # three weights, all factorable, whose 975 x 6 extended vectors have
    # rank 5; the dense elimination with its 975 x 975 transform took 75 s
    y = plane_variety()
    omega = cone_from_rays([(0, -1), (2, 1)], 2)
    tail = dual_cone(omega).rays
    d = PDivisor(y, omega, {
        "D": tailed_polyhedron([(2, -4)], tail, 2),
        "E": tailed_polyhedron([(Fraction(4, 3), Fraction(-2, 3))], tail, 2),
    })
    rays = [r for cell in linearity_subdivision(d).cells for r in cell.rays]
    pool, _ = zariski_generators(d, rays)
    pool.extend(weight_lattice_completion(d, pool))
    vectors = [extended_vector(y, e) for e in pool]
    assert len(vectors) == 975 and None not in vectors
    ker = kernel_lattice(list(zip(*vectors)))
    assert len(ker) == 970 and {len(row) for row in ker} == {975}
    for row in ker:
        total = [0] * len(vectors[0])
        for c, v in zip(row, vectors):
            if c:
                total = [t + c * x for t, x in zip(total, v)]
        assert not any(total)
    # Hermite shape: pivots positive in increasing columns, entries above
    # a pivot in [0, pivot)
    pivots = [next(j for j, x in enumerate(row) if x) for row in ker]
    assert pivots == sorted(set(pivots))
    for i, (row, c) in enumerate(zip(ker, pivots)):
        assert row[c] > 0
        assert all(0 <= above[c] < row[c] for above in ker[:i])


def test_only_a_point_base_solve_builds_a_hilbert_basis(monkeypatch):
    calls = []

    def spy(cone):
        calls.append(cone)
        return hilbert_basis(cone)

    for module in (cli, coxs5, engine, polyhedra, torus):
        if getattr(module, "hilbert_basis", None) is hilbert_basis:
            monkeypatch.setattr(module, "hilbert_basis", spy)
    # the quotient field step on the plane needs no interior ray, and the
    # independent factorable sets of both solves are normal as they stand
    d = plane_pdivisor()
    run_general(d.variety, d)
    assert calls == []
    run_cox()
    assert calls == []
    # a point base saturates its weights
    point = PDivisor(PointBase(), cone_from_rays([(2, -1), (0, 1)], 2), {})
    run_general(point.variety, point)
    assert len(calls) == 1


@st.composite
def _independent_vectors(draw):
    dim = draw(st.integers(min_value=1, max_value=5))
    row = st.lists(st.integers(min_value=-3, max_value=3), min_size=dim, max_size=dim)
    vectors = [tuple(v) for v in draw(st.lists(row, min_size=1, max_size=dim))]
    assume(rank(vectors) == len(vectors))
    return vectors


@given(_independent_vectors())
@settings(max_examples=100, deadline=None)
def test_independent_vectors_are_their_own_saturation(vectors):
    # Z-independent vectors are a basis of the lattice they span, so their
    # cone meets that lattice in their own semigroup
    assert _saturate_semigroup(vectors) == sorted(vectors)


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


def test_interior_lattice_basis_rejects_a_whole_space():
    # the rays sum to zero, so no primitive interior point starts a basis
    whole = cone_from_rays([(1, 0), (-1, 0), (0, 1), (0, -1)], 2)
    with pytest.raises(NonPointedCone, match="sum to zero"):
        interior_lattice_basis(whole)


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


def _every_coordinate_ratio_solves(y, elements):
    """Whether each x_i / x_j of the backend is an integer combination of the
    exponent vectors of the factorable elements."""
    vectors = [v for v in (extended_vector(y, e) for e in elements) if v is not None]
    rank = len(elements[0].weight)
    for i_num, i_den in y.function_field_generators():
        target = [0] * (len(y.atoms) + rank)
        target[i_num] += 1
        target[i_den] -= 1
        if solve_in_lattice(tuple(target), vectors) is None:
            return False
    return True


def test_quotient_field_steps_start_at_the_first_multiple():
    # the plane's interior ray is (0, 1); its first step adds the 10 cubic
    # sections there, and no unit at the zero weight
    d = plane_pdivisor()
    added = quotient_field_complete(d, [], ())
    assert len(added) == 10
    assert {e.weight for e in added} == {(0, 1)}
    assert _every_coordinate_ratio_solves(d.variety, added)
    assert len(quotient_field_complete(d, [], (), max_iterations=1)) == 10
    with pytest.raises(
        IterationLimitExceeded, match=r"no quotient field witness for coordinate ratio \(0, 2\)"
    ):
        quotient_field_complete(d, [], (), max_iterations=0)


def test_quotient_field_takes_its_witness_from_the_reserve():
    d = plane_pdivisor()
    cells = linearity_subdivision(d).cells
    pool = zariski_generators(d, [r for cell in cells for r in cell.rays])[0]
    # the reserve branch moves elements, so no step along the interior ray runs
    added = quotient_field_complete(d, [], pool, max_iterations=0)
    assert len(added) == 3
    assert {e.weight for e in added} == {(2, 2)}
    assert all(e in pool for e in added)
    assert _every_coordinate_ratio_solves(d.variety, added)


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


@st.composite
def _decomposition_searches(draw):
    """Weights in a pointed cone of dimension 2-5, maybe not full-dimensional,
    a superset of them spanning a wider pointed cone, and targets."""
    dim = draw(st.integers(min_value=2, max_value=5))
    entry = st.integers(min_value=0, max_value=2)
    row = st.lists(entry, min_size=dim, max_size=dim)
    # nonnegative combinations of fewer than dim rows span a flat cone
    basis = draw(st.lists(row, min_size=1, max_size=dim))
    coeffs = st.lists(entry, min_size=len(basis), max_size=len(basis))
    weights = []
    for c in draw(st.lists(coeffs, min_size=1, max_size=5)):
        w = tuple(sum(a * b[j] for a, b in zip(c, basis)) for j in range(dim))
        if any(w):
            weights.append(w)
    # unit vectors widen the cone to the orthant, so that its search visits
    # more nodes than the search on the weights' own cone
    extra = [tuple(int(i == j) for j in range(dim)) for i in range(dim) if draw(st.booleans())]
    extra += [tuple(r) for r in draw(st.lists(row, max_size=2)) if any(r)]
    multiplicities = st.lists(
        st.integers(min_value=0, max_value=3), min_size=len(weights), max_size=len(weights)
    )
    targets = []
    for c in draw(st.lists(multiplicities, min_size=1, max_size=3)):
        u = [sum(a * w[j] for a, w in zip(c, weights)) for j in range(dim)]
        # a small shift sometimes leaves no decomposition
        shift = draw(st.lists(st.integers(min_value=-1, max_value=1), min_size=dim, max_size=dim))
        targets.append(tuple(a + b for a, b in zip(u, shift)))
    return weights, weights + extra, targets


@given(_decomposition_searches())
@settings(max_examples=60, deadline=None)
def test_nn_decompositions_match_the_recursive_search(search):
    weights, superset, targets = search
    assume(weights)
    dim = len(weights[0])
    # one wider cone and one facet value cache for every search, as
    # reduce_generators shares them
    wide = cone_from_rays(superset, dim)
    values = {}
    for u in targets:
        # small limits cut the search off part way, and make the search on
        # the wider cone run again on the weights' own cone
        for limit in (1, 5, 30, 20000):
            expected = recursive_nn_decompositions(u, weights, limit)
            assert _nn_decompositions(u, weights, limit) == expected
            assert _nn_decompositions(u, weights, limit, wide, values) == expected
    assert all(v == tuple(dot(f, w) for f in wide.facets) for w, v in values.items())


def test_nn_decompositions_on_a_wider_cone_run_again_at_the_limit():
    weights = [(1, 0), (1, 1)]
    expected = [((1, 1), (1, 1), (1, 1))]
    # on its own cone the search walks (3, 3), (2, 2), (1, 1), (0, 0); the
    # quadrant keeps (2, 3) and its children, the whole plane keeps every
    # remainder, and both stop at 5 nodes before they reach a decomposition
    for rays in ([(1, 0), (0, 1)], [(1, 0), (0, 1), (-1, -1)]):
        wide = cone_from_rays(rays, 2)
        assert _nn_decompositions((3, 3), weights, 5, wide, {}) == expected
    assert _nn_decompositions((3, 3), weights, 4) == expected
    assert _nn_decompositions((3, 3), weights, 3) == []
