"""The general pipeline: ray sections, completion, pruning, normalization."""

import gc
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    brute_hilbert_basis,
    det,
    per_test_reduce_generators,
    plane_pdivisor,
    plane_variety,
    recursive_nn_decompositions,
    saturate_semigroup,
    thirteen_generators,
)
from pdivgen import cli, coxs5, engine, pdivisor, polyhedra, torus
from pdivgen.cli import build_pdivisor, build_variety, parse_job
from pdivgen.coxs5 import run_cox
from pdivgen.engine import (
    NODE_LIMIT,
    GradedElement,
    _interior_ray,
    _nn_decompositions,
    _search,
    algebra_membership,
    extended_vector,
    find_k_rho,
    harvest_rays,
    interior_lattice_basis,
    quotient_field_complete,
    reduce_generators,
    run_general,
    weight_lattice_completion,
    zariski_generators,
)
from pdivgen.pdivisor import IterationLimitExceeded, PDivisor, linearity_subdivision
from pdivgen.intlinalg import kernel_lattice, rank, solve_in_lattice
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
    # one evaluation per ray serves its search, its sections and the
    # weight lattice completion, whose basis vectors (0, 1) and (1, 1)
    # are rays
    assert evaluate.call_count == 3


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


class _Unmultipliable(MPoly):
    """A polynomial that fails any product it enters."""

    __slots__ = ()

    def __mul__(self, other):
        raise AssertionError("a later decomposition was multiplied out")

    __rmul__ = __mul__


def test_a_membership_test_stops_at_the_first_spanning_decomposition():
    y = plane_variety()
    x = MPoly.variable(3, 0)
    late = _Unmultipliable(3, {(0, 0, 2): 1})
    gens = [GradedElement(ffe(x), (1,)), GradedElement(ffe(late), (2,))]
    # the decompositions of 2 are (1, 1), whose product x^2 spans, then (2,)
    assert _nn_decompositions((2,), [(1,), (2,)]) == [((1,), (1,)), ((2,),)]
    assert algebra_membership(y, GradedElement(ffe(3 * x**2), (2,)), gens)


def test_a_membership_test_reads_products_over_one_fixed_denominator():
    y = plane_variety()
    x, yy, z = (MPoly.variable(3, i) for i in range(3))
    # every section of the weight 1 has the denominator D at most, and one
    # of the weight 2 has E^2: the product x * x / D^2 spans x^2 E / (D^2 E)
    gens = [
        GradedElement(ffe(x, [("D", 1)]), (1,)),
        GradedElement(ffe(yy), (1,)),
        GradedElement(ffe(z, [("E", 2)]), (2,)),
    ]
    target = GradedElement(ffe(x * x * y.form("E"), [("D", 2), ("E", 1)]), (2,))
    with mock.patch.object(engine, "in_span", wraps=engine.in_span) as span:
        assert algebra_membership(y, target, gens)
    # (1, 1) asks for D^2 and (2,) for E^2
    assert span.call_args.args[3] == {"D": 2, "E": 2}
    assert not algebra_membership(y, GradedElement(ffe(x * z, [("D", 1)]), (2,)), gens)


def test_reduce_generators_drops_products():
    y = plane_variety()
    one = MPoly.constant(3, 1)
    a = GradedElement(ffe(one), (0, 1))
    b = GradedElement(ffe(one), (1, 1))
    prod = GradedElement(ffe(one), (1, 2))
    quadrant = cone_from_rays([(1, 0), (0, 1)], 2)
    reduced = reduce_generators(y, [a, b, prod], quadrant)
    assert {e.weight for e in reduced} == {(0, 1), (1, 1)}


def test_a_solve_builds_no_cone_on_a_point_base_or_the_plane():
    # pruning searches in the solve's weight cone, which holds every pool
    # weight, and a point base reads the Hilbert basis off that cone: it
    # saturates to SaturatedToric on the wedge and is Normal on the pyramid
    wedge = cone_from_rays([(1, 0), (1, 3)], 2)
    pyramid = cone_from_rays([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], 3)
    points = [PDivisor(PointBase(), cone, {}) for cone in (wedge, pyramid)]
    for d in points + [plane_pdivisor()]:
        with mock.patch.object(polyhedra, "_dual_pair", wraps=polyhedra._dual_pair) as build:
            run_general(d.variety, d)
        assert build.call_count == 0


def test_reduce_generators_searches_each_weight_once():
    d = plane_pdivisor()
    y = d.variety
    pool = run_general(y, d).elements
    expected = per_test_reduce_generators(y, pool)
    with mock.patch.object(engine, "_search", wraps=engine._search) as search:
        assert reduce_generators(y, pool, d.weight_cone) == expected
    # one search of every distinct weight, and none per test
    assert search.call_count == 1
    assert search.call_args.args[0] == tuple(sorted({e.weight for e in pool}))


def test_a_search_cut_off_at_the_node_limit_falls_back_to_its_test():
    y = PointBase()
    weights = ((1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (20, 20))
    pool = [GradedElement(y.one(), w) for w in weights]
    cone = cone_from_rays(weights, 2)
    [(_, complete)] = _search([(20, 20)], sorted(weights), NODE_LIMIT, cone, {})
    assert not complete
    expected = per_test_reduce_generators(y, pool)
    with mock.patch.object(engine, "algebra_membership", wraps=engine.algebra_membership) as test:
        assert reduce_generators(y, pool, cone) == expected
    # only the test at (20, 20) runs a search of its own
    own = [c.args[1].weight for c in test.call_args_list if c.kwargs["decomps"] is None]
    assert own == [(20, 20)]


def test_normalize_or_export_takes_the_left_kernel_once():
    d = plane_pdivisor()
    y = d.variety
    elements = run_general(y, d).elements
    with mock.patch.object(engine, "kernel_lattice", wraps=engine.kernel_lattice) as ker:
        result = engine.normalize_or_export(y, elements, d.weight_cone)
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
    tail = dual_cone(omega)
    d = PDivisor(y, omega, {
        "D": tailed_polyhedron([(2, -4)], tail),
        "E": tailed_polyhedron([(Fraction(4, 3), Fraction(-2, 3))], tail),
    })
    rays = [r for cell in linearity_subdivision(d).cells for r in cell.rays]
    harvest = harvest_rays(d, rays)
    pool, _ = zariski_generators(d, harvest)
    pool.extend(weight_lattice_completion(d, pool, harvest))
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
    assert saturate_semigroup(vectors) == sorted(vectors)


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


def _random_weight_cone(rng, dim):
    """A full-dimensional pointed cone of up to dim + 2 random rays, with
    entries small enough for the brute-force oracle in dimension 3."""
    bound = 3 if dim == 2 else 2
    while True:
        count = dim + rng.choice((0, 1, 2))
        rays = [tuple(rng.randint(-bound, bound) for _ in range(dim)) for _ in range(count)]
        if not all(map(any, rays)):
            continue
        cone = cone_from_rays(rays, dim)
        if cone.is_pointed() and cone.is_full_dim():
            return cone


def test_point_base_saturation_is_the_oracle_on_the_pruned_weights():
    # a point base reads its generators off the weight cone's Hilbert
    # basis; the oracle prunes the pool on the pool's own cone, one search
    # per test, and saturates the weights kept in the lattice they generate
    rng = random.Random(31)
    simplicial = set()
    for _ in range(200):
        dim = rng.choice((2, 3, 4))
        cone = _random_weight_cone(rng, dim)
        simplicial.add(len(cone.rays) == dim)
        d = PDivisor(PointBase(), cone, {})
        result = run_general(d.variety, d)
        harvest = harvest_rays(d, cone.rays)
        pool, _ = zariski_generators(d, harvest)
        pool += weight_lattice_completion(d, pool, harvest)
        weights = sorted(e.weight for e in per_test_reduce_generators(d.variety, pool))
        sat = saturate_semigroup(weights)
        assert [e.weight for e in result.elements] == sat
        status = "Normal" if weights == sat else "SaturatedToric"
        assert result.normalization_status == status
        if dim <= 3:
            assert sat == brute_hilbert_basis(cone.rays, dim)
    assert simplicial == {False, True}


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
    pool = zariski_generators(d, harvest_rays(d, [r for cell in cells for r in cell.rays]))[0]
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


_BIG = 2**70


@given(_decomposition_searches())
# facet values above 2**64, so that each packed field is wider than 64 bits
@example((
    [(_BIG, 1), (1, _BIG)],
    [(_BIG, 1), (1, _BIG), (1, 0), (0, 1)],
    [(2 * _BIG + 1, _BIG + 2), (3 * _BIG, 3 * _BIG), (_BIG + 1, _BIG)],
))
# roots outside the weights' cone, one inside the wider cone and one not
@example(([(1, 0), (1, 1)], [(1, 0), (1, 1), (0, 1)], [(0, 1), (-1, 0), (2, 1)]))
# u = 0, the empty decomposition at the root
@example(([(1, 0, 0), (1, 1, 1)], [(1, 0, 0), (1, 1, 1), (0, 0, 1)], [(0, 0, 0)]))
# unit weights are tight on every facet of the orthant but one
@example((
    [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
    [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
    [(2, 1, 1), (1, 2, 0)],
))
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
            # a search for the first decomposition stops there
            assert _nn_decompositions(u, weights, limit, first=True) == expected[:1]
            assert _nn_decompositions(u, weights, limit, wide, values, first=True) == expected[:1]
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


def test_nn_decompositions_refuse_a_cone_that_does_not_hold_the_weights():
    quadrant = cone_from_rays([(1, 0), (0, 1)], 2)
    with pytest.raises(ValueError, match="a weight lies outside the pruning cone"):
        _nn_decompositions((0, 2), [(1, 1), (-1, 1)], cone=quadrant)
