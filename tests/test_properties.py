"""Structural properties checked on randomized inputs.

This file is self-contained so the whole suite can run standalone:

    pytest tests/test_properties.py
"""

import random
from fractions import Fraction
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_pointed_rays,
    fraction_in_span,
    fraction_span_dimension,
    plane_pdivisor,
    plane_variety,
)
from pdivgen import polyhedra
from pdivgen.intlinalg import det, hnf, mat_mul, primitive, rank
from pdivgen.mpoly import MPoly, monomials_of_degree
from pdivgen.polyhedra import (
    _pointed_rays,
    cone_from_rays,
    dot,
    dual_cone,
    generators_of_dual,
    minkowski_sum,
    tailed_polyhedron,
)
from pdivgen.varieties import ffe, in_span, sections_of_floor, span_dimension

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


def test_dual_pairing_is_nonnegative():
    rng = random.Random(29)
    for _ in range(30):
        c = _random_pointed_cone(rng, rng.choice((2, 3)))
        d = dual_cone(c)
        for u in d.rays:
            for v in c.rays:
                assert dot(u, v) >= 0


def test_support_is_additive_under_minkowski_sum():
    rng = random.Random(31)
    tail = cone_from_rays([(1, 0), (0, 1)], 2)
    for _ in range(20):
        p = tailed_polyhedron(
            [
                (rng.randint(-3, 3), rng.randint(-3, 3))
                for _ in range(rng.randint(1, 3))
            ],
            tail.rays,
            2,
        )
        q = tailed_polyhedron(
            [
                (rng.randint(-3, 3), rng.randint(-3, 3))
                for _ in range(rng.randint(1, 3))
            ],
            tail.rays,
            2,
        )
        s = minkowski_sum(p, q)
        for _ in range(10):
            u = (rng.randint(0, 5), rng.randint(0, 5))
            assert s.support(u) == p.support(u) + q.support(u)


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
        if not bu.elements or not bv.elements:
            continue
        prod = (bu.elements[0] * bv.elements[0]).normalized()
        # the product of sections lives in the sections of the sum weight
        assert in_span(y, prod, target.elements), (u, v)


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


@st.composite
def _plane_section(draw, base):
    den = draw(st.sampled_from(_DENOMINATORS))
    monos = monomials_of_degree(3, base + 3 * sum(k for _, k in den))
    terms = draw(st.dictionaries(st.sampled_from(monos), _rational, max_size=4))
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
    """(elements, target, whether the target is a combination of them)."""
    base = draw(st.integers(min_value=0, max_value=2))
    elements = draw(st.lists(_plane_section(base), max_size=6))
    if elements:
        elements += draw(st.lists(st.sampled_from(elements), max_size=2))
    if elements and draw(st.booleans()):
        coeffs = draw(st.lists(_rational, min_size=len(elements), max_size=len(elements)))
        label = draw(st.sampled_from(("D", "E")))
        return elements, _combination(_PLANE, elements, coeffs, label), True
    return elements, draw(_plane_section(base)), False


@given(_plane_span_cases())
@settings(max_examples=200, deadline=None)
def test_span_tests_match_the_fraction_oracle(case):
    elements, target, combination = case
    got = in_span(_PLANE, target, elements)
    assert got == fraction_in_span(_PLANE, target, elements)
    if combination:
        assert got
    assert span_dimension(_PLANE, elements) == fraction_span_dimension(_PLANE, elements)
