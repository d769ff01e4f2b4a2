"""Structural properties checked on randomized inputs.

This file is self-contained so the whole suite can run standalone:

    pytest tests/test_properties.py
"""

import random
from fractions import Fraction
from operator import add
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    FractionMPoly,
    brute_force_pointed_rays,
    det,
    contains_test_reduce_rays,
    every_k_ray_search,
    fraction_evaluate,
    fraction_in_span,
    fraction_kernel_basis,
    fraction_rref,
    fraction_span_dimension,
    full_shift_class_vector,
    full_shift_free_forms,
    full_shift_multiplicity_at,
    guarded_quotient_field_complete,
    homogenized_tailed_polyhedron,
    listing_t_monomial,
    mat_mul,
    normal_fan,
    one_shot_algebra_membership,
    oracle_element_divisor,
    oracle_factor_exponents,
    oracle_blowup_sections,
    oracle_invariantizing_section,
    oracle_projective_basepoint_free,
    oracle_projective_sections,
    per_simplex_ray_pool,
    per_test_reduce_generators,
    plane_pdivisor,
    plane_variety,
    product_shift,
    recursive_nn_decompositions,
    span_dimension,
    standard_blowup,
    two_pass_cone_from_facets,
    two_pass_cone_from_rays,
    two_pass_dual_cone,
    two_pass_hyperplane_subdivision,
    two_step_common_refinement,
)
from pdivgen import polyhedra
from pdivgen.coxs5 import CURVE_COLUMNS, _t_monomial, build_cox_pdivisor, reduce_rays
from pdivgen.engine import (
    GradedElement,
    _weight_denominators,
    algebra_membership,
    extended_vector,
    harvest_rays,
    interior_lattice_basis,
    quotient_field_complete,
    reduce_generators,
    run_general,
    weight_lattice_completion,
    zariski_generators,
)
from pdivgen.jobfile import JobSemanticError, parse_fraction
from pdivgen.intlinalg import hnf, kernel_lattice, primitive, rank, rational_kernel, rref
from pdivgen.mpoly import MPoly, monomials_of_degree, multiplicity_at
from pdivgen.pdivisor import (
    IterationLimitExceeded,
    PDivisor,
    find_k_rho,
    linearity_subdivision,
    restrict,
    validate,
)
from pdivgen.polyhedra import (
    _pointed_rays,
    common_refinement,
    cone_from_facets,
    cone_from_rays,
    dot,
    dual_cone,
    generators_of_dual,
    hyperplane_subdivision,
    tailed_polyhedron,
    triangulate,
)
from pdivgen.varieties import (
    BlowupOfP2,
    NotTMoveable,
    PointBase,
    QDivisor,
    _cross,
    common_denominator,
    ffe,
    in_span,
    is_basepoint_free,
    sections,
    sections_of_floor,
)

small_int = st.integers(min_value=-7, max_value=7)
tiny_int = st.integers(min_value=-4, max_value=4)


@st.composite
def _vector_lists(draw, min_size=None):
    """(vectors, dim): min_size (default dim) to dim + 4 vectors in [-4, 4]^dim."""
    dim = draw(st.integers(min_value=2, max_value=6))
    vec = st.lists(tiny_int, min_size=dim, max_size=dim).map(tuple)
    vectors = draw(st.lists(vec, min_size=min_size or dim, max_size=dim + 4))
    return vectors, dim


def _random_pointed_cone(rng, dim):
    while True:
        rays = [tuple(rng.randint(-5, 5) for _ in range(dim)) for _ in range(dim)]
        if all(any(r) for r in rays) and det(rays) != 0:
            return cone_from_rays(rays, dim)


@given(
    st.lists(
        st.lists(small_int, min_size=3, max_size=3), min_size=3, max_size=3
    )
)
@settings(max_examples=80, deadline=None)
def test_hnf_transform_is_unimodular(a):
    h, u = hnf(a)
    assert abs(det(u)) == 1
    assert mat_mul(u, a) == tuple(tuple(r) for r in h)


def test_dual_is_an_involution():
    rng = random.Random(23)
    for _ in range(40):
        c = _random_pointed_cone(rng, rng.choice((2, 3)))
        assert dual_cone(dual_cone(c)).rays == c.rays


@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda dim: st.lists(st.lists(small_int, min_size=dim, max_size=dim), max_size=dim + 3)
    .map(lambda vecs: (dim, vecs))
))
@settings(max_examples=150, deadline=None)
def test_a_cone_is_pointed_when_its_facets_have_full_rank(case):
    dim, vecs = case
    for c in (cone_from_rays(vecs, dim), cone_from_facets(vecs, dim)):
        for cone in (c, dual_cone(c)):
            assert cone.is_pointed() == (rank(cone.facets) == dim)


def test_dual_pairing_is_nonnegative():
    rng = random.Random(29)
    for _ in range(30):
        c = _random_pointed_cone(rng, rng.choice((2, 3)))
        d = dual_cone(c)
        for u in d.rays:
            for v in c.rays:
                assert dot(u, v) >= 0


def test_evaluation_is_superadditive_and_homogeneous():
    d = plane_pdivisor()
    rng = random.Random(37)
    omega = d.weight_cone
    samples = []
    while len(samples) < 20:
        u = (rng.randint(-4, 4), rng.randint(0, 4))
        if omega.contains(u) and any(u):
            samples.append(u)
    for u in samples:
        for k in (2, 3):
            ku = tuple(k * x for x in u)
            assert d.evaluate(ku) == d.evaluate(u) * k
        for v in samples:
            w = tuple(a + b for a, b in zip(u, v))
            lhs = d.evaluate(w)
            rhs = d.evaluate(u) + d.evaluate(v)
            for label in ("D", "E"):
                assert lhs.get(label) >= rhs.get(label)


def test_section_products_multiply_into_the_sum_weight():
    d = plane_pdivisor()
    y = d.variety
    rng = random.Random(41)
    omega = d.weight_cone
    pairs = []
    while len(pairs) < 10:
        u = (rng.randint(-3, 3), rng.randint(1, 3))
        v = (rng.randint(-3, 3), rng.randint(1, 3))
        if omega.contains(u) and omega.contains(v):
            pairs.append((u, v))
    for u, v in pairs:
        w = tuple(a + b for a, b in zip(u, v))
        target = sections_of_floor(y, d.evaluate(w))
        bu = sections_of_floor(y, d.evaluate(u))
        bv = sections_of_floor(y, d.evaluate(v))
        if not bu or not bv:
            continue
        prod = (bu[0] * bv[0]).normalized()
        # the product of sections lives in the sections of the sum weight
        assert in_span(y, prod, target), (u, v)


def test_primitive_is_idempotent_and_parallel():
    rng = random.Random(43)
    for _ in range(50):
        v = tuple(rng.randint(-9, 9) for _ in range(3))
        if not any(v):
            continue
        p = primitive(v)
        assert primitive(p) == p
        # p is parallel to v with a positive factor
        nz = next(i for i in range(3) if v[i])
        assert v[nz] * p[nz] > 0
        assert all(v[i] * p[nz] == p[i] * v[nz] for i in range(3))


@st.composite
def _primitive_vectors_and_cones(draw):
    """(u, cone) in one dimension 1-5: u primitive, the cone full-dimensional
    and pointed, spanned by independent rays and up to two combinations of them."""
    dim = draw(st.integers(min_value=1, max_value=5))
    vec = st.lists(small_int, min_size=dim, max_size=dim).map(tuple)
    u = primitive(draw(vec.filter(any)))
    rays = draw(st.lists(vec, min_size=dim, max_size=dim))
    assume(det(rays) != 0)
    coeffs = st.lists(st.integers(min_value=0, max_value=3), min_size=dim, max_size=dim)
    extra = [
        tuple(sum(k * r[j] for k, r in zip(c, rays)) for j in range(dim))
        for c in draw(st.lists(coeffs.filter(any), max_size=2))
    ]
    return u, cone_from_rays(rays + extra, dim)


@given(_primitive_vectors_and_cones())
# the rays sum to the unit vector (0, 0, 1), so the kernel completion is kept
@example(((2, 3, 0), cone_from_rays([(1, 0, 0), (0, 1, 0), (-1, -1, 1)], 3)))
@settings(max_examples=200, deadline=None)
def test_unimodularity_tests_that_need_no_determinant(case):
    u, cone = case
    # the kernel completion of a primitive u has |det| = |u|^2, so it is a
    # basis exactly when u is a unit vector
    assert abs(det([u] + list(kernel_lattice([u])))) == sum(x * x for x in u)
    basis = interior_lattice_basis(cone)
    assert len(basis) == cone.dim
    assert all(cone.contains(b) for b in basis)
    assert abs(det(basis)) == 1


# The brute force tries every (dim-1)-subset, so inputs stay at most
# dim + 4 vectors and each example runs the oracle exactly once.


@given(_vector_lists())
@settings(max_examples=200, deadline=None)
def test_double_description_matches_brute_force(case):
    ineqs, dim = case
    assume(rank(ineqs) == dim)
    assert _pointed_rays(ineqs, dim) == brute_force_pointed_rays(ineqs, dim)


@given(
    _vector_lists(min_size=1),
    st.sampled_from(("as drawn", "flat", "with a line")),
)
@settings(max_examples=150, deadline=None)
def test_generators_of_dual_match_brute_force(case, shape):
    vectors, dim = case
    if shape == "flat":
        # inside the hyperplane x_last = x_0: the dual has a lineality space
        vectors = [v[:-1] + v[:1] for v in vectors]
    elif shape == "with a line":
        # a vector and its negative: the dual is not full-dimensional
        vectors = vectors[: dim + 3] + [tuple(-x for x in vectors[0])]
    got = generators_of_dual(vectors, dim)
    with mock.patch.object(polyhedra, "_pointed_rays", brute_force_pointed_rays):
        assert got == generators_of_dual(vectors, dim)


# Both descriptions of a cone from one double description, against two
# passes of generators_of_dual.  The extra inputs repeat a vector, scale
# one (the same after primitive), add two (redundant) or are zero.


@st.composite
def _cone_inputs(draw):
    vectors, dim = draw(_vector_lists(min_size=1))
    shape = draw(st.sampled_from(("as drawn", "in a halfspace", "flat", "with a line")))
    if shape == "in a halfspace":
        # x_0 > 0 on every vector: cone(vectors) is pointed
        vectors = [(abs(v[0]) + 1,) + v[1:] for v in vectors]
    elif shape == "flat":
        vectors = [v[:-1] + v[:1] for v in vectors]
    elif shape == "with a line":
        vectors = vectors + [tuple(-x for x in vectors[0])]
    pick = st.sampled_from(vectors)
    extra = st.one_of(
        pick,
        st.tuples(pick, st.integers(2, 3)).map(lambda p: tuple(p[1] * x for x in p[0])),
        st.tuples(pick, pick).map(lambda p: tuple(a + b for a, b in zip(*p))),
        st.just((0,) * dim),
    )
    return vectors + draw(st.lists(extra, max_size=3)), dim


@given(_cone_inputs())
@settings(max_examples=300, deadline=None)
def test_cones_match_the_two_pass_oracle(case):
    vectors, dim = case
    for build, oracle in (
        (cone_from_rays, two_pass_cone_from_rays),
        (cone_from_facets, two_pass_cone_from_facets),
    ):
        c = build(vectors, dim)
        assert c == oracle(vectors, dim)
        assert dual_cone(c) == two_pass_dual_cone(c)


@st.composite
def _cells_and_hyperplanes(draw):
    """A pointed full-dimensional cell in dimension 2-6 and 1-5 hyperplanes.

    A random hyperplane cuts the cell or misses it; a sum of facet normals
    touches it along a face or meets it only at the origin; a random
    hyperplane turned to contain a ray of the cell cuts through that ray
    or touches the cell there; +/- a facet normal of the cell never cuts.
    Up to two more planes repeat a drawn one, turned or scaled, and the
    list is shuffled.
    """
    vectors, dim = draw(_vector_lists())
    cell = cone_from_rays([(abs(v[0]) + 1,) + v[1:] for v in vectors], dim)
    assume(cell.is_full_dim())
    vec = st.lists(tiny_int, min_size=dim, max_size=dim).map(tuple)
    facet_sum = st.lists(st.sampled_from(cell.facets), min_size=1, unique=True).map(
        lambda fs: tuple(map(sum, zip(*fs)))
    )
    through = st.tuples(vec, st.sampled_from(cell.rays)).map(
        lambda p: tuple(dot(p[1], p[1]) * a - dot(p[0], p[1]) * b for a, b in zip(*p))
    )
    facet = st.tuples(st.sampled_from(cell.facets), st.sampled_from((-1, 1))).map(
        lambda p: tuple(p[1] * x for x in p[0])
    )
    plane = st.one_of(vec, facet_sum, through, facet).filter(any)
    planes = draw(st.lists(plane, min_size=1, max_size=3))
    again = st.tuples(st.sampled_from(planes), st.sampled_from((-2, -1, 1, 3))).map(
        lambda p: tuple(p[1] * x for x in p[0])
    )
    return cell, draw(st.permutations(planes + draw(st.lists(again, max_size=2))))


@given(_cells_and_hyperplanes())
# the last plane holds the rays (1, 0, -3) and (1, 3, 2), which span no edge
# of the cells the first two cut: a row counts for adjacency once it is done
@example(
    (
        cone_from_rays([(1, -3, 3), (1, 0, -3), (1, 3, 1), (1, 3, 2)], 3),
        [(-3, -2, -2), (-1, 1, -2), (9, -5, 3)],
    )
)
@settings(max_examples=200, deadline=None)
def test_hyperplane_cuts_match_the_two_pass_oracle(case):
    cell, planes = case
    got = hyperplane_subdivision(cell, planes).cells
    want = two_pass_hyperplane_subdivision(cell, planes).cells
    assert [c.rays for c in got] == [c.rays for c in want]
    assert [c.facets for c in got] == [c.facets for c in want]


def _fractions(bound, den):
    """Every fraction p/q with 0 < q <= den and |p/q| <= bound, sorted."""
    return tuple(
        sorted({Fraction(p, q) for q in range(1, den + 1) for p in range(-bound * q, bound * q + 1)})
    )


_THIRDS = _fractions(3, 3)
_third_index = st.integers(0, len(_THIRDS) - 1)
# the dimension, the rays past dim, whether there is a line, the point counts
_refinement_shapes = st.tuples(
    st.integers(2, 4),
    st.integers(0, 2),
    st.booleans(),
    st.lists(st.integers(2, 4), min_size=1, max_size=3),
)


def _flat(entry, n):
    return st.lists(entry, min_size=n, max_size=n)


@st.composite
def _ambients_and_polyhedra(draw):
    """A full-dimensional ambient cone in dimension 2-4, pointed or holding
    a line, and 1-3 tailed polyhedra of 2-4 rational points each on its
    dual, which is pointed.

    Flat lists of entries are shaped into the dim to dim + 2 rays, the
    line and the points.  Every case is valid as drawn: a zero line
    becomes the first unit vector, and rays that span less than the
    space have their first dim replaced by the unit vectors.
    """
    dim, extra, with_line, sizes = draw(_refinement_shapes)
    flat = draw(_flat(tiny_int, (dim + extra + with_line) * dim))
    rays = [tuple(flat[i : i + dim]) for i in range(0, len(flat), dim)]
    units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    if with_line:
        line = rays.pop() if any(rays[-1]) else units[0]
        rays += [line, tuple(-x for x in line)]
    if rank(rays) < dim:
        rays[:dim] = units
    ambient = cone_from_rays(rays, dim)
    tail = dual_cone(ambient)
    entries = iter(_THIRDS[i] for i in draw(_flat(_third_index, sum(sizes) * dim)))
    polys = [
        tailed_polyhedron([tuple(next(entries) for _ in range(dim)) for _ in range(n)], tail)
        for n in sizes
    ]
    return ambient, polys


@given(_ambients_and_polyhedra())
@settings(max_examples=150, deadline=None)
def test_common_refinement_matches_the_normal_fan_oracle(case):
    ambient, polys = case
    got = common_refinement(polys, ambient).cells
    want = two_step_common_refinement([normal_fan(p) for p in polys], ambient).cells
    assert [(c.rays, c.facets) for c in got] == [(c.rays, c.facets) for c in want]


# Span tests on the plane, where D and E are cubics.  The sections of one
# case all have degree `base` as functions, so spans meet and targets built
# as combinations of the elements are hits.

_PLANE = plane_variety()
_DENOMINATORS = (
    (),
    (("D", 1),),
    (("E", 1),),
    (("D", 1), ("E", 1)),
    (("D", 2),),
    (("D", 1), ("E", 2)),
)
_rational = st.fractions(min_value=-5, max_value=5, max_denominator=4)
_RATIONALS = _fractions(5, 4)
# a section: an index into _DENOMINATORS, then up to four (monomial,
# coefficient) index pairs, each index read modulo the length of its table
_section_indices = st.lists(st.integers(0, 1023), min_size=1, max_size=9)
_indices = st.lists(st.integers(0, 1023), min_size=8, max_size=8)
_labels = st.sampled_from(("D", "E"))


def _plane_section(indices, base):
    den = _DENOMINATORS[indices[0] % len(_DENOMINATORS)]
    monos = monomials_of_degree(3, base + 3 * sum(k for _, k in den))
    pairs = indices[1:]
    terms = {
        monos[m % len(monos)]: _RATIONALS[c % len(_RATIONALS)]
        for m, c in zip(pairs[::2], pairs[1::2])
    }
    return ffe(MPoly(3, terms), den)


def _combination(y, elements, coeffs, label):
    """sum c_i e_i over the common denominator, times label's form / itself."""
    common = {label: 1}
    for e in elements:
        for l, k in e.den:
            common[l] = max(common.get(l, 0), k)
    num = MPoly.constant(3, 0)
    for e, c in zip(elements, coeffs):
        term = e.num * c
        for l, k in common.items():
            term = term * y.form(l) ** (k - dict(e.den).get(l, 0))
        num = num + term
    return ffe(num, common.items())


@st.composite
def _plane_span_cases(draw):
    """(elements, target, whether the target is a combination of them).

    Up to six sections, then up to two repeats, all shaped from flat
    lists of indices."""
    base = draw(st.integers(min_value=0, max_value=2))
    elements = [_plane_section(i, base) for i in draw(st.lists(_section_indices, max_size=6))]
    if elements:
        repeats = draw(st.lists(st.integers(0, 5), max_size=2))
        elements += [elements[i % len(elements)] for i in repeats]
    if elements and draw(st.booleans()):
        coeffs = [_RATIONALS[i % len(_RATIONALS)] for i in draw(_indices)[: len(elements)]]
        return elements, _combination(_PLANE, elements, coeffs, draw(_labels)), True
    return elements, _plane_section(draw(_section_indices), base), False


@given(_plane_span_cases())
@settings(max_examples=200, deadline=None)
def test_span_tests_match_the_fraction_oracle(case):
    elements, target, combination = case
    got = in_span(_PLANE, target, elements)
    assert got == fraction_in_span(_PLANE, target, elements)
    if combination:
        assert got
    assert span_dimension(_PLANE, elements) == fraction_span_dimension(_PLANE, elements)


@given(_plane_span_cases(), st.dictionaries(st.sampled_from(("D", "E")), st.integers(0, 2)))
@settings(max_examples=60, deadline=None)
def test_a_span_test_reads_a_generator_as_its_list(case, extra):
    elements, target, _ = case
    expected = in_span(_PLANE, target, elements)
    assert in_span(_PLANE, target, (e for e in elements)) == expected
    # a common denominator raised by any exponents gives the same answer
    den = common_denominator(elements + [target])
    for label, k in extra.items():
        den[label] = den.get(label, 0) + k
    assert in_span(_PLANE, target, iter(elements), den) == expected


# Base point freeness on the plane with the cubics D and E and the line
# L = x + y: the degree test against building the sections.

_PLANE_WITH_LINE = plane_variety()
_PLANE_WITH_LINE.register_divisor("L", MPoly.variable(3, 0) + MPoly.variable(3, 1))


@given(st.dictionaries(st.sampled_from(("D", "E", "L")), st.integers(-3, 3)))
@settings(max_examples=150, deadline=None)
def test_plane_basepoint_freeness_matches_building_the_sections(coeffs):
    div = QDivisor(coeffs)
    got = is_basepoint_free(_PLANE_WITH_LINE, div)
    assert got == oracle_projective_basepoint_free(_PLANE_WITH_LINE, div)


# Section spaces against the construction each backend had before the split
# moved to Variety: on the plane with the cubics D, E and the line x = 0, and
# on the four-point blow-up with H, the exceptional curves and the lines.

_PLANE_WITH_HYPERPLANE = plane_variety()
_PLANE_WITH_HYPERPLANE.coordinate_label(0)
_BLOWUP = standard_blowup()
_BLOWUP_LABELS = ("H", "E1", "E2", "E3", "E4", "E12", "E13", "E14", "E23", "E24", "E34")


@given(st.dictionaries(st.sampled_from(("D", "E", "coord:x")), st.integers(-3, 3)))
@example({"D": -1, "coord:x": 2})  # free degree -1
@settings(max_examples=150, deadline=None)
def test_plane_sections_match_the_monomial_construction(coeffs):
    div = QDivisor(coeffs)
    assert sections(_PLANE_WITH_HYPERPLANE, div) == oracle_projective_sections(
        _PLANE_WITH_HYPERPLANE, div
    )


@given(st.dictionaries(st.sampled_from(_BLOWUP_LABELS), st.integers(-3, 3), max_size=3))
@example({"H": 1, "E12": -2})  # free degree -1
@example({"H": 2, "E1": -3, "E13": 1})  # free degree 3, multiplicity 2 at the first point
@settings(max_examples=100, deadline=None)
def test_blowup_sections_match_the_multiplicity_construction(coeffs):
    div = QDivisor(coeffs)
    assert sections(_BLOWUP, div) == oracle_blowup_sections(_BLOWUP, div)


# The blow-up builds its vanishing conditions, its negative curves and
# the class of each divisor once per instance: a surface that has already
# served other divisors and degrees answers as a fresh one does.

_SERVED_BLOWUP = standard_blowup()
for _coeffs in ({"H": 1}, {"H": 3, "E1": -1, "E2": -2}, {"H": 2, "E12": 1, "E3": -1}):
    sections(_SERVED_BLOWUP, QDivisor(_coeffs))
    is_basepoint_free(_SERVED_BLOWUP, QDivisor(_coeffs))


@given(st.dictionaries(st.sampled_from(_BLOWUP_LABELS), st.integers(-2, 2), max_size=4))
@settings(max_examples=100, deadline=None)
def test_blowup_tables_built_once_change_nothing(coeffs):
    div = QDivisor(coeffs)
    y = _SERVED_BLOWUP
    assert sections(y, div) == sections(standard_blowup(), div)
    assert is_basepoint_free(y, div) == is_basepoint_free(standard_blowup(), div)
    assert y.class_of(div) == y.divisor_class(div) == standard_blowup().divisor_class(div)


def _outcome(f, *args):
    try:
        return f(*args)
    except NotTMoveable as exc:
        return ("NotTMoveable", str(exc))


@given(
    st.dictionaries(
        st.sampled_from(("D", "E", "coord:x")),
        st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 1, 2))),
    )
)
@example({"E": Fraction(1, 2)})  # not integral on a non-invariant divisor
@example({"E": -1, "D": 2})  # negative degree on the non-invariant part
@settings(max_examples=150, deadline=None)
def test_invariantizing_section_matches_the_balanced_construction(coeffs):
    div = QDivisor(coeffs)
    y = _PLANE_WITH_HYPERPLANE
    assert _outcome(y.invariantizing_section, div) == _outcome(
        oracle_invariantizing_section, y, div
    )


# Row reduction of rational matrices up to 6 x 6 against the Fraction rref.
# Extra rows are zero, repeat a row or combine two rows, so many inputs are
# rank deficient.


@st.composite
def _rational_matrices(draw):
    """(rows, width): at most 6 rows of width 1 to 6."""
    width = draw(st.integers(min_value=1, max_value=6))
    entry = st.one_of(st.just(0), tiny_int, _rational)
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width), max_size=6))
    for _ in range(draw(st.integers(min_value=0, max_value=6 - len(rows)))):
        kind = draw(st.sampled_from(("zero", "repeat", "combine")))
        if kind == "zero" or not rows:
            rows.append([0] * width)
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(_rational), draw(_rational)
            rows.append([s * x + t * y for x, y in zip(a, b)])
    return draw(st.permutations(rows)), width


@given(_rational_matrices())
@settings(max_examples=300, deadline=None)
def test_rref_is_the_primitive_fraction_rref(case):
    rows, _ = case
    red, pivots = fraction_rref(rows)
    got = rref(rows)
    assert got == ([primitive(r) for r in red], pivots)
    assert all(type(x) is int for r in got[0] for x in r)
    assert rank(rows) == len(pivots)


@given(_rational_matrices())
@settings(max_examples=200, deadline=None)
def test_kernel_basis_matches_the_fraction_kernel_up_to_scale(case):
    rows, width = case
    got = rational_kernel(rows, width)
    want = fraction_kernel_basis(rows, width)
    pivots = fraction_rref(rows)[1]
    free = [j for j in range(width) if j not in pivots]
    assert len(got) == len(want) == len(free)
    for v, w, j in zip(got, want, free):
        # w is 1 at its free column j, so v is v[j] * w with v[j] > 0
        assert v[j] > 0
        assert [Fraction(x, v[j]) for x in v] == w
    for v in got:
        assert all(sum(a * x for a, x in zip(r, v)) == 0 for r in rows)


# Tailed polyhedra on their tail cone: 1 to 4 points drawn from at most
# three, so repeats are common, with fractional entries, over a random
# pointed tail in dimension 1 to 5 that need not be full-dimensional.


@st.composite
def _points_on_pointed_tails(draw):
    dim = draw(st.integers(min_value=1, max_value=5))
    ray = st.lists(st.integers(min_value=-3, max_value=3), min_size=dim, max_size=dim)
    tail = cone_from_rays(draw(st.lists(ray, max_size=dim + 1)), dim)
    assume(tail.is_pointed())
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    pool = draw(st.lists(st.tuples(*[entry] * dim), min_size=1, max_size=3))
    points = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    return points, tail


@given(_points_on_pointed_tails())
@example(([(0, 0), (1, -1)], cone_from_rays([(1, 0), (0, 1)], 2)))
@example(([(Fraction(1, 2), 1), (0, 1), (0, 1)], cone_from_rays([(1, 0)], 2)))
@example(([(0, 1), (Fraction(1, 3), 1)], cone_from_rays([(-1, 0)], 2)))
@example(([(1, 2, 3), (1, 2, 3)], cone_from_rays([], 3)))
@example(([(0, 0, 0), (1, 1, 0), (2, 0, 1), (1, 0, 0)], cone_from_rays([(0, 0, 1)], 3)))
@settings(max_examples=150, deadline=None)
def test_tailed_polyhedron_matches_the_homogenized_cone(case):
    points, tail = case
    got = tailed_polyhedron(points, tail)
    assert got == homogenized_tailed_polyhedron(points, tail.rays, tail.dim)
    assert all(type(x) is Fraction for v in got.vertices for x in v)


# Support functions on random p-divisors: vertices with negative and
# non-integral entries, over a random pointed weight cone in dimension 2 or 3.

_vertex_entry = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def _random_pdivisors(draw):
    dim = draw(st.integers(min_value=2, max_value=3))
    omega = _random_pointed_cone(random.Random(draw(st.integers(0, 10**6))), dim)
    tail = dual_cone(omega)
    vertex = st.lists(_vertex_entry, min_size=dim, max_size=dim).map(tuple)
    coefficients = {}
    for label in ("A", "B", "C")[: draw(st.integers(min_value=1, max_value=3))]:
        vertices = draw(st.lists(vertex, min_size=1, max_size=4))
        coefficients[label] = tailed_polyhedron(vertices, tail)
    return PDivisor(PointBase(), omega, coefficients)


@st.composite
def _weight_in_cone(draw, cone):
    """A nonnegative combination of the rays, over a denominator up to 3."""
    coeffs = draw(st.lists(st.integers(0, 3), min_size=len(cone.rays), max_size=len(cone.rays)))
    den = draw(st.integers(min_value=1, max_value=3))
    u = [sum(c * r[i] for c, r in zip(coeffs, cone.rays)) for i in range(cone.dim)]
    return tuple(x if den == 1 else Fraction(x, den) for x in u)


def _assert_ints_where_integral(values):
    """No float, and an int for every integral value."""
    for v in values:
        assert isinstance(v, (int, Fraction)), repr(v)
        assert type(v) is (int if v.denominator == 1 else Fraction), repr(v)


@given(_random_pdivisors(), st.data())
@settings(max_examples=100, deadline=None)
def test_evaluate_matches_the_fraction_support_function(d, data):
    for _ in range(4):
        u = data.draw(_weight_in_cone(d.weight_cone))
        got = d.evaluate(u)
        assert got == fraction_evaluate(d, u)
        _assert_ints_where_integral(got.coeffs.values())


@given(_random_pdivisors(), st.data())
@settings(max_examples=60, deadline=None)
def test_restriction_to_a_simplex_evaluates_as_the_divisor(d, data):
    # the general route reads each ray's sections from D itself, not from
    # D restricted to a cell or simplex that holds the ray; that is exact
    # because dual(simplex) only adds directions u is >= 0 on
    for cell in linearity_subdivision(d).cells:
        for simplex in triangulate(cell):
            cone = cone_from_rays(simplex, d.weight_cone.dim)
            restricted = restrict(d, cone)
            for _ in range(2):
                u = data.draw(_weight_in_cone(cone))
                assert restricted.evaluate(u) == d.evaluate(u)


def _pool_keys(harvest):
    """The keys of a ray harvest's elements, or the cap message it stops at."""
    try:
        return [e.key() for e in harvest()]
    except IterationLimitExceeded as exc:
        return str(exc)


@st.composite
def _effective_pdivisors(draw):
    """Random p-divisors over a point whose vertices lie in the tail cone,
    so that D(u) >= 0 and every ray has a base point free multiple."""
    dim = draw(st.integers(min_value=2, max_value=3))
    omega = _random_pointed_cone(random.Random(draw(st.integers(0, 10**6))), dim)
    tail = dual_cone(omega)
    multiple = st.fractions(min_value=0, max_value=2, max_denominator=3)
    vertex = st.lists(multiple, min_size=len(tail.rays), max_size=len(tail.rays)).map(
        lambda c: tuple(sum(a * r[i] for a, r in zip(c, tail.rays)) for i in range(dim))
    )
    coefficients = {}
    for label in ("A", "B", "C")[: draw(st.integers(min_value=1, max_value=3))]:
        vertices = draw(st.lists(vertex, min_size=1, max_size=4))
        coefficients[label] = tailed_polyhedron(vertices, tail)
    return PDivisor(PointBase(), omega, coefficients)


@given(st.one_of(_random_pdivisors(), _effective_pdivisors()))
@settings(max_examples=80, deadline=None)
def test_one_pass_ray_pool_matches_the_per_simplex_harvest(d):
    cells = linearity_subdivision(d).cells
    rays = [r for cell in cells for r in cell.rays]
    got = _pool_keys(lambda: zariski_generators(d, harvest_rays(d, rays))[0])
    expected = _pool_keys(lambda: per_simplex_ray_pool(d))
    if all(len(cell.rays) == rank(cell.rays) for cell in cells):
        assert got == expected
    elif isinstance(expected, str):
        # both walks stop at the cap, possibly at different rays
        assert isinstance(got, str)
    else:
        assert len(set(got)) == len(got) and set(got) == set(expected)


# the plane job with D = (0,1/65): the denominator 65 on every ray is
# above the cap of 64
_PLANE_65 = plane_pdivisor(d_vertex=(0, Fraction(1, 65)))


def _ray_search(search, d, rho):
    """(k, D(k*rho)) of a ray search, or the cap message it stops at."""
    try:
        return search(d, rho)
    except IterationLimitExceeded as exc:
        return str(exc)


def _one_evaluation_search(d, rho):
    k, base = find_k_rho(d, rho)
    return k, base * k


@given(st.one_of(_random_pdivisors(), _effective_pdivisors()))
@example(_PLANE_65)
@example(plane_pdivisor())
@settings(max_examples=80, deadline=None)
def test_one_evaluation_per_ray_matches_the_every_k_search(d):
    semiample = {c.name: c for c in validate(d) if c.name.startswith("semiample")}
    for rho in linearity_subdivision(d).rays():
        expected = _ray_search(every_k_ray_search, d, rho)
        got = _ray_search(_one_evaluation_search, d, rho)
        assert got == expected
        check = semiample[f"semiample at ray {rho}"]
        if isinstance(got, str):
            assert (check.verdict, check.detail) == ("fail", "no base point free multiple up to cap 64")
        else:
            assert (check.verdict, check.detail) == ("pass", f"k = {got[0]}")


def test_validate_and_the_general_route_share_the_cap():
    checks = validate(_PLANE_65)
    assert [c.verdict for c in checks if c.name.startswith("semiample")] == ["fail"] * 3
    with pytest.raises(IterationLimitExceeded, match=r"multiple of \(-1, 1\) up to 64"):
        run_general(_PLANE_65.variety, _PLANE_65)


# the general route's raw pool on the plane: 75 ray sections at (-2, 2),
# (0, 2) and (2, 2), then the lattice completion's (0, 1) and (1, 1)
_PLANE_D = plane_pdivisor()
_PLANE_HARVEST = harvest_rays(
    _PLANE_D, [r for cell in linearity_subdivision(_PLANE_D).cells for r in cell.rays]
)
_PLANE_POOL = zariski_generators(_PLANE_D, _PLANE_HARVEST)[0]
_PLANE_POOL += weight_lattice_completion(_PLANE_D, _PLANE_POOL, _PLANE_HARVEST)
_pool_indices = st.sets(st.integers(min_value=0, max_value=76))


@given(_pool_indices, _pool_indices, st.integers(min_value=0, max_value=3))
@example(set(), set(), 0)  # no witness and no step: the cap
@example(set(), set(), 1)  # one step along the interior ray (0, 1)
@example(set(), set(range(77)), 0)  # the reserve holds the witness
@example(set(), {75, 76}, 1)  # the reserve has none: one step along the ray
@example({13}, {13, 17, 34, 66}, 1)  # a kept element also in the reserve
@settings(max_examples=150, deadline=None)
def test_quotient_field_completion_matches_the_guarded_oracle(kept, reserve, max_iterations):
    assert len(_PLANE_POOL) == 77
    elements = [_PLANE_POOL[i] for i in sorted(kept)]
    pool = [_PLANE_POOL[i] for i in sorted(reserve)]
    expected = _pool_keys(
        lambda: guarded_quotient_field_complete(_PLANE_D, elements, pool, max_iterations)
    )
    got = _pool_keys(lambda: quotient_field_complete(_PLANE_D, elements, pool, max_iterations))
    assert got == expected


@st.composite
def _shift_cases(draw):
    nvars = draw(st.integers(min_value=1, max_value=3))
    exponent = st.lists(st.integers(0, 4), min_size=nvars, max_size=nvars).map(tuple)
    terms = draw(st.dictionaries(exponent, _rational, max_size=5))
    point = draw(st.lists(_rational, min_size=nvars, max_size=nvars))
    return MPoly(nvars, terms), point


@given(_shift_cases())
@settings(max_examples=200, deadline=None)
def test_shift_matches_the_product_shift(case):
    poly, point = case
    assert poly.shift(point) == product_shift(poly, point)


# MPoly against the all-Fraction arithmetic it replaced; coefficients are
# often integral, so that sums, products and quotients can turn a
# non-integral coefficient into an integral one.

_coefficient = st.one_of(tiny_int, _rational)


@st.composite
def _polynomial_pairs(draw):
    nvars = draw(st.integers(min_value=1, max_value=3))
    exponent = st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars).map(tuple)
    terms = st.dictionaries(exponent, _coefficient, max_size=4)
    return nvars, draw(terms), draw(terms.filter(lambda t: any(t.values())))


def _assert_same_terms(got, expected):
    if expected is None:
        assert got is None
        return
    assert got.terms == expected.terms
    _assert_ints_where_integral(got.terms.values())


@given(
    _polynomial_pairs(),
    st.integers(0, 3),
    st.lists(_coefficient, min_size=3, max_size=3),
    st.integers(0, 2),
)
@settings(max_examples=200, deadline=None)
def test_mpoly_matches_the_fraction_arithmetic(case, k, point, var):
    nvars, a_terms, b_terms = case
    a, b = MPoly(nvars, a_terms), MPoly(nvars, b_terms)
    fa, fb = FractionMPoly(nvars, a_terms), FractionMPoly(nvars, b_terms)
    point, var = point[:nvars], var % nvars
    _assert_same_terms(a, fa)
    _assert_same_terms(a + b, fa + fb)
    _assert_same_terms(a - b, fa - fb)
    _assert_same_terms(a * b, fa * fb)
    _assert_same_terms(a * point[0], fa * FractionMPoly(nvars, {(0,) * nvars: point[0]}))
    _assert_same_terms(a**k, fa**k)
    _assert_same_terms((a * b).divide_exact(b), (fa * fb).divide_exact(fb))
    _assert_same_terms(a.divide_exact(b), fa.divide_exact(fb))
    _assert_same_terms(a.shift(point), fa.shift(point))
    _assert_same_terms(a.dehomogenize(var, point[0]), fa.dehomogenize(var, point[0]))
    _assert_same_terms(a.content_normalized(), fa.content_normalized())


# The exponent codec of a variety against the two factorizations it
# replaced: on the plane (D = x y z is monomial, E is not), on the plane
# with the monomial form x^2 y and the line x + y added, and on the
# blow-up (H and the six lines).


def _plane_with_more_forms():
    y = plane_variety()
    x, yy, _ = (MPoly.variable(3, i) for i in range(3))
    y.register_divisor("M", x**2 * yy)
    y.register_divisor("L", x + yy)
    return y


_CODEC_BASES = (plane_variety, _plane_with_more_forms, standard_blowup)


@st.composite
def _codec_sections(draw):
    """(variety, section): a scalar times coordinates and defining forms,
    maybe times a linear factor such as x + y, over a factored
    denominator; sometimes a coordinate hyperplane is registered first."""
    y = draw(st.sampled_from(_CODEC_BASES))()
    n = y.nvars
    for i in draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=2)):
        y.coordinate_label(i)
    labels = sorted(y.forms())
    exps = draw(st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n))
    num = MPoly.monomial(n, exps, draw(_rational.filter(bool)))
    for label in draw(st.lists(st.sampled_from(labels), max_size=3)):
        num = num * y.form(label)
    if draw(st.booleans()):
        coeffs = draw(st.lists(tiny_int, min_size=n, max_size=n).filter(any))
        num = num * MPoly(n, {tuple(int(i == j) for j in range(n)): c for i, c in enumerate(coeffs)})
    den = draw(st.dictionaries(st.sampled_from(labels), st.integers(min_value=1, max_value=2), max_size=3))
    return y, ffe(num, den.items())


def _same_up_to_scalar(y, a, b):
    lhs, rhs = a.num, b.num
    for label, k in b.den:
        lhs = lhs * y.form(label) ** k
    for label, k in a.den:
        rhs = rhs * y.form(label) ** k
    return lhs.content_normalized() == rhs.content_normalized()


@given(_codec_sections())
@settings(max_examples=200, deadline=None)
def test_exponent_codec_matches_the_oracles(case):
    y, s = case
    expected = oracle_factor_exponents(y, s)
    got = extended_vector(y, GradedElement(s, (1, 2)))
    assert got == (None if expected is None else expected + (1, 2))
    coords, forms = oracle_element_divisor(y, s)
    vec, _ = y.exponents(s)
    n = y.nvars
    assert vec[:n] == coords
    assert {label: v for label, v in zip(y.atoms[n:], vec[n:]) if v} == forms
    if expected is not None:
        assert _same_up_to_scalar(y, s, y.from_exponents(expected))


@given(st.sampled_from(_CODEC_BASES), st.data())
@settings(max_examples=100, deadline=None)
def test_exponent_vectors_round_trip_through_sections(base, data):
    y = base()
    width = len(y.atoms)
    vec = data.draw(st.lists(tiny_int, min_size=width, max_size=width))
    got, rest = y.exponents(y.from_exponents(vec))
    assert got == vec
    assert rest.is_term()


# Pruning searches each weight once over the whole pool, on a cone that
# contains its weights, and each test keeps the decompositions whose
# weights lie in its rest; the oracle runs one search per test, on the
# pool's own cone.  Plane pools take elements of the plane example's raw
# pool and products of pairs of them, in its weight cone; point pools take
# weights in a random pointed cone, so that sums of weights drop.


@st.composite
def _plane_pools(draw):
    indices = draw(st.sets(st.integers(0, 76), min_size=1, max_size=10))
    chosen = [_PLANE_POOL[i] for i in sorted(indices)]
    pairs = draw(st.lists(st.tuples(st.sampled_from(chosen), st.sampled_from(chosen)), max_size=4))
    products = [
        GradedElement(a.section * b.section, tuple(map(add, a.weight, b.weight))) for a, b in pairs
    ]
    return _PLANE_D.variety, chosen + products, _PLANE_D.weight_cone


@st.composite
def _point_pools(draw):
    dim = draw(st.integers(min_value=2, max_value=3))
    cone = _random_pointed_cone(random.Random(draw(st.integers(0, 10**6))), dim)
    coeffs = st.lists(st.integers(0, 2), min_size=dim, max_size=dim)
    weights = [
        w
        for c in draw(st.lists(coeffs, min_size=1, max_size=6))
        if any(w := tuple(sum(a * r[i] for a, r in zip(c, cone.rays)) for i in range(dim)))
    ]
    if weights:
        pairs = st.tuples(st.sampled_from(weights), st.sampled_from(weights))
        weights += [tuple(map(add, a, b)) for a, b in draw(st.lists(pairs, max_size=3))]
    point = PointBase()
    return point, [GradedElement(point.one(), w) for w in weights], cone


_CUT_OFF_WEIGHTS = ((1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (20, 20))
_CUT_OFF_POOL = (
    PointBase(),
    [GradedElement(PointBase().one(), w) for w in _CUT_OFF_WEIGHTS],
    cone_from_rays([(1, 0), (0, 1)], 2),
)


@given(st.one_of(_plane_pools(), _point_pools()))
# the search at (20, 20) over the whole pool stops at the node limit, so its
# test runs a search of its own
@example(_CUT_OFF_POOL)
@settings(max_examples=60, deadline=None)
def test_one_search_per_weight_prunes_as_one_search_per_test(case):
    y, pool, cone = case
    assert reduce_generators(y, pool, cone) == per_test_reduce_generators(y, pool)


# A membership test reduces each product into one echelon as it is built,
# over a denominator fixed up front, and stops when the element's row
# reduces to zero; the oracle multiplies out every product first.  An
# element of a pool is tested against the rest of it, as in pruning, with
# and without the pool's per-weight denominators.

_X, _Y, _Z = (MPoly.variable(3, i) for i in range(3))


def _on_weights(*pairs):
    return [GradedElement(ffe(num), weight) for num, weight in pairs]


# y^2 is the 900th product of the weight 1 with itself, past the cap
_TRUNCATED = (
    _PLANE,
    _on_weights((_Y * _Y, (2,)))[0],
    _on_weights(*[(_X, (1,))] * 29, (_Y, (1,))),
)
# five decompositions of 6 give 3,000 products before (6,), whose z^6 spans
_STOPPED = (
    _PLANE,
    _on_weights((2 * _Z**6, (6,)))[0],
    _on_weights(
        *[(_X, (1,))] * 30, *[(_X**2, (2,))] * 30, *[(_X**3, (3,))] * 30, (_Z**6, (6,))
    ),
)


@st.composite
def _membership_cases(draw):
    y, pool, _ = draw(st.one_of(_plane_pools(), _point_pools()).filter(lambda case: case[1]))
    i = draw(st.integers(0, len(pool) - 1))
    return y, pool[i], pool[:i] + pool[i + 1 :]


@given(_membership_cases())
@example(_TRUNCATED)
@example(_STOPPED)
@settings(max_examples=80, deadline=None)
def test_a_membership_test_that_stops_early_answers_as_the_one_shot_test(case):
    y, element, gens = case
    expected = one_shot_algebra_membership(y, element, gens)
    assert algebra_membership(y, element, gens) == expected
    dens = _weight_denominators(gens + [element])
    assert algebra_membership(y, element, gens, dens=dens) == expected
    if case in (_TRUNCATED, _STOPPED):
        # the last generator alone spans the element, but its products come
        # past a cap
        assert not expected
        assert algebra_membership(y, element, gens[-1:])


# The Cox route's ray reduction compares facet values where it tested each
# u2 - z against the weight cone, and a curve monomial is the first
# decomposition of its class.  Composite weights u2 = z + u1, with z one of
# the curve classes (all of them have a principal evaluation) and the class
# of u1 given to u2, make the reduction drop rays.

_COX_D = build_cox_pdivisor()
_COX = _COX_D.variety
_CURVES = tuple(_COX.class_vector(label) for label in CURVE_COLUMNS)


@st.composite
def _cox_weights(draw):
    """A nonzero combination of the curve classes with coefficients up to 2."""
    coeffs = draw(st.lists(st.integers(0, 2), min_size=10, max_size=10))
    coeffs[draw(st.integers(0, 9))] += 1
    return tuple(sum(c * r[i] for c, r in zip(coeffs, _CURVES)) for i in range(5))


def _cox_class(u):
    return _COX.class_of(_COX_D.evaluate(u).floor())


@st.composite
def _ray_class_maps(draw):
    classes = {u: _cox_class(u) for u in draw(st.lists(_cox_weights(), min_size=1, max_size=4))}
    for _ in range(draw(st.integers(0, 3))):
        z = draw(st.sampled_from(_CURVES))
        u1 = draw(st.one_of(st.sampled_from(sorted(classes)), _cox_weights()))
        classes[tuple(map(add, z, u1))] = classes.get(u1) or _cox_class(u1)
    return classes


@given(_ray_class_maps())
# (1, 1, 0, 0, 0) = E1 + (1, 0, 0, 0, 0) with the class of the latter drops
@example({(1, 0, 0, 0, 0): (1, 0, 0, 0, 0), (1, 1, 0, 0, 0): (1, 0, 0, 0, 0)})
@settings(max_examples=60, deadline=None)
def test_ray_reduction_by_facet_values_matches_the_cone_test(classes):
    assert reduce_rays(_COX, _COX_D, classes) == contains_test_reduce_rays(_COX, _COX_D, classes)


# sums of up to four curve classes, and small vectors, most of them outside
# the effective cone
_class_sums = st.lists(st.sampled_from(_CURVES), min_size=1, max_size=4).map(
    lambda parts: tuple(map(sum, zip(*parts)))
)
_small_vectors = st.lists(tiny_int, min_size=5, max_size=5).map(tuple)


@given(st.lists(st.one_of(_class_sums, _small_vectors), max_size=3))
@example([(0, 0, 0, 0, 0), (-1, 0, 0, 0, 0), (2, -1, -1, -1, -1)])
# each curve class on its own, which is its own variable with no search
@example([_CURVES[0]])
@example([_CURVES[1]])
@example([_CURVES[2]])
@example([_CURVES[3]])
@example([_CURVES[4]])
@example([_CURVES[5]])
@example([_CURVES[6]])
@example([_CURVES[7]])
@example([_CURVES[8]])
@example([_CURVES[9]])
@settings(max_examples=40, deadline=None)
def test_a_curve_monomial_is_the_first_decomposition(weights):
    columns = list(_CURVES)
    cone, values, listed = _COX_D.weight_cone, {}, {}
    for u in weights:
        got = _t_monomial(u, columns, cone, values)
        assert got == listing_t_monomial(u, columns, cone, listed)
        first = next(iter(recursive_nn_decompositions(u, columns, 5000)), None)
        assert got == (None if first is None else tuple(first.count(c) for c in columns))


# The blow-up expands a form about a point only where it vanishes there, and
# a section space's monomials only to the orders it asks for: against the
# whole Taylor expansion by products, on four random points in general
# position (a projective image of three coordinate points and a point with
# no zero coordinate, each scaled by a denominator), with a line through
# none of them as H.


def _mat_vec(m, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


@st.composite
def _blowups(draw):
    nonzero = st.sampled_from((-3, -2, -1, 1, 2, 3))
    l10, l20, l21, u01, u02, u12 = draw(st.lists(tiny_int, min_size=6, max_size=6))
    d0, d1, d2 = draw(st.lists(nonzero, min_size=3, max_size=3))
    lower = ((1, 0, 0), (l10, 1, 0), (l20, l21, 1))
    upper = ((d0, u01, u02), (0, d1, u12), (0, 0, d2))
    m = mat_mul(lower, upper)
    last = tuple(draw(st.lists(nonzero, min_size=3, max_size=3)))
    points = []
    for p in ((1, 0, 0), (0, 1, 0), (0, 0, 1), last):
        den = draw(st.integers(1, 3))
        points.append(tuple(Fraction(x, den) for x in _mat_vec(m, p)))
    # a point is a root of at most two of the quadratics x0 + t x1 + t^2 x2
    t = next(t for t in range(9) if all(p[0] + t * p[1] + t * t * p[2] for p in points))
    h = MPoly(3, {(1, 0, 0): 1, (0, 1, 0): t, (0, 0, 1): t * t})
    return BlowupOfP2(points, h)


@st.composite
def _forms_through_points(draw, y):
    """A random form of degree 0-4: a random part times lines through the
    blow-up points, each through one of them and another point."""
    lines = []
    for i, j in draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4)), max_size=3)):
        other = y.points[j] if j < 4 else draw(st.lists(tiny_int, min_size=3, max_size=3))
        a, b, c = _cross(y.points[i], other)
        if any((a, b, c)):
            lines.append(MPoly(3, {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c}))
    degree = draw(st.integers(0, 4 - len(lines)))
    monos = monomials_of_degree(3, degree)
    coeffs = draw(st.lists(tiny_int, min_size=len(monos), max_size=len(monos)))
    form = MPoly(3, dict(zip(monos, coeffs[:-1] + [coeffs[-1] or 1])))
    for line in lines:
        form = form * line
    return form


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_taylor_data_to_the_order_read_matches_the_full_shift(data):
    y = data.draw(_blowups())
    form = data.draw(_forms_through_points(y))
    for p in y.points:
        assert multiplicity_at(form, p) == full_shift_multiplicity_at(form, p)
    y.register_divisor("F", form)
    for label in ("F", "H", "E1", "E2", "E3", "E4", "E12", "E13", "E14", "E23", "E24", "E34"):
        assert y.class_vector(label) == full_shift_class_vector(y, label)
    requests = data.draw(st.lists(st.integers(0, 3), min_size=4, max_size=4))
    coeffs = {f"E{i + 1}": -m for i, m in enumerate(requests)}
    coeffs["F"] = data.draw(st.integers(-1, 1))
    div = QDivisor(coeffs)
    degree = data.draw(st.integers(0, 4))
    assert y._free_forms(degree, div) == full_shift_free_forms(y, degree, div)


# A job's rational literal reads decimal digits, maybe after a minus sign,
# with int and any other literal through Fraction.  Both take the Unicode
# decimal digits, here an Arabic-Indic three and a Devanagari five; a
# superscript two is a digit but not a decimal one.  int alone would also
# take an underscore, which Python 3.10's Fraction refuses.


def _fraction_parse(text):
    """The literal as Fraction alone reads it, an int when integral, or None."""
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        return None
    return value.numerator if value.denominator == 1 else value


_LITERAL_CHARS = list("0123456789" * 3) + list("\u0663\u096b\u00b2+-_/. ")


@given(st.text(alphabet=st.sampled_from(_LITERAL_CHARS), max_size=8))
@example("12")
@example(" 007 ")
@example("\u0663\u096b")
@example("\u00b2")
@example("1_0")
@example("-12")
@example("--5")
@example("-")
@example("-4/6")
@example("3/0")
@example("")
@settings(max_examples=300, deadline=None)
def test_rational_literals_read_as_fraction_reads_them(text):
    expected = _fraction_parse(text)
    if expected is None:
        with pytest.raises(JobSemanticError):
            parse_fraction(text)
    else:
        got = parse_fraction(text)
        assert got == expected and type(got) is type(expected)
