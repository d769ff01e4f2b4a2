"""The Cox construction on the four-point blow-up of the plane."""

from contextlib import ExitStack
from fractions import Fraction
from unittest import mock

import pytest

from helpers import (
    cox_pdivisor_oracle,
    degreewise_check,
    plane_pdivisor,
    two_pass_hyperplane_subdivision,
)
from pdivgen import engine, jobfile, polyhedra, torus
from pdivgen.coxs5 import (
    CURVE_COLUMNS,
    build_cox_pdivisor,
    certificate_matrix,
    minors_certificate,
    presentation_text,
    run_cox,
)
from pdivgen.mpoly import MPoly
from pdivgen.pdivisor import PDivisor, linearity_subdivision
from pdivgen.engine import GradedElement, _sorted_elements, weight_lattice_completion
from pdivgen.varieties import BlowupOfP2, QDivisor, Variety, sections


# the classes, in the basis (H, E1..E4), of the curve variables t0..t9: the
# exceptional curves E1..E4, then the line transforms E14, E34, E24, E23,
# E13, E12
CURVE_CLASSES = (
    (0, 1, 0, 0, 0),
    (0, 0, 1, 0, 0),
    (0, 0, 0, 1, 0),
    (0, 0, 0, 0, 1),
    (1, -1, 0, 0, -1),
    (1, 0, 0, -1, -1),
    (1, 0, -1, 0, -1),
    (1, 0, -1, -1, 0),
    (1, -1, 0, -1, 0),
    (1, -1, -1, 0, 0),
)


@pytest.fixture(scope="module")
def result():
    return run_cox()


def test_weight_cone_rays():
    omega = build_cox_pdivisor().weight_cone
    assert set(omega.rays) == set(CURVE_CLASSES)
    assert len(omega.rays) == 10


def test_the_job_file_holds_the_cox_pdivisor():
    parsed = build_cox_pdivisor()
    built = cox_pdivisor_oracle()
    # the surface: its points, coordinate names and every defining form
    for attr in ("points", "coordinates"):
        assert getattr(parsed.variety, attr) == getattr(built.variety, attr)
    forms = [{label: f.terms for label, f in d.variety.forms().items()} for d in (parsed, built)]
    assert forms[0] == forms[1]
    for cone in ("rays", "facets"):
        assert getattr(parsed.weight_cone, cone) == getattr(built.weight_cone, cone)
    assert list(parsed.coefficients) == list(built.coefficients)
    for label, poly in built.coefficients.items():
        assert parsed.coefficients[label].vertices == poly.vertices
        assert parsed.coefficients[label].tail.rays == poly.tail.rays
        assert parsed.coefficients[label].tail.facets == poly.tail.facets


def test_pdivisor_evaluation_at_curve_columns():
    d = build_cox_pdivisor()
    # positive entries clip to zero, negative ones survive
    assert d.evaluate((0, 1, 0, 0, 0)) == QDivisor({})
    assert d.evaluate((1, -1, 0, 0, -1)) == QDivisor(
        {"H": 1, "E1": -1, "E4": -1, "E14": -1}
    )


def test_subdivision_counts(result):
    assert len(result.cells) == 76
    assert len(result.rays) == 20


def test_the_cox_subdivision_matches_the_two_pass_oracle(result):
    # every cell with its facets in dimension 5: 65 of the 76 cells are
    # simplicial, and no tight set of the other 11 lies in a larger one
    d = build_cox_pdivisor()
    planes = [
        tuple(a - b for a, b in zip(*poly.vertices))
        for poly in d.coefficients.values()
        if len(poly.vertices) == 2
    ]
    assert len(planes) == 10
    got = polyhedra.hyperplane_subdivision(d.weight_cone, planes).cells
    want = two_pass_hyperplane_subdivision(d.weight_cone, planes).cells
    assert [c.rays for c in got] == [c.rays for c in want]
    assert [c.facets for c in got] == [c.facets for c in want]
    assert got == result.cells
    assert sum(len(c.rays) == 5 for c in got) == 65


def test_ray_classes(result):
    classes = {tuple(int(x) for x in c) for c in result.ray_classes.values()}
    expected = {(0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (2, -1, -1, -1, -1)}
    for i in range(4):
        e = [0, 0, 0, 0, 0]
        e[0] = 1
        e[1 + i] = -1
        expected.add(tuple(e))
        f = [2, -1, -1, -1, -1]
        f[1 + i] = 0
        expected.add(tuple(f))
    assert classes == expected
    assert len(classes) == 11


def test_every_ray_class_is_basepoint_free(result):
    assert set(result.bpf_multiples.values()) == {1}


def test_reduction_keeps_all_rays(result):
    assert len(result.reduced_rays) == 20
    assert len(result.pool) == 35


def test_ten_generators(result):
    gens = result.generators
    assert gens.normalization_status == "Normal"
    assert len(gens.elements) == 10
    lines = set(result.presentation.splitlines())
    for expected in (
        "t0",
        "t1",
        "t2",
        "t3",
        "(x1*h - x2*h) * t4",
        "(x0*h - x1*h) * t5",
        "(x0*h - x2*h) * t6",
        "(x0*h) * t7",
        "(x1*h) * t8",
        "(x2*h) * t9",
    ):
        assert expected in lines


def test_the_generators_are_a_minimal_generating_set_in_box_three():
    # at each of the 81 nonzero weights u of the effective cone with
    # |u|_1 <= 3: the products of the generators span the piece, and by
    # graded Nakayama a minimal generating set needs one generator at each
    # negative curve class and none elsewhere
    d = build_cox_pdivisor()
    missing, minimal = degreewise_check(d.variety, d, run_cox(d).generators.elements, 3)
    assert len(missing) == 81
    assert set(missing.values()) == {0}
    assert minimal == {u: int(u in CURVE_CLASSES) for u in missing}


def test_presentation_builds_no_pruning_cone(result):
    # the presentation takes the weight cone, the cone of the curve
    # columns, from its caller and passes it to every search
    cox = build_cox_pdivisor()
    cone = cox.weight_cone
    with mock.patch.object(engine, "cone_from_rays", wraps=engine.cone_from_rays) as build:
        text = presentation_text(cox.variety, result.generators.elements, cone)
    assert build.call_count == 0
    assert text == result.presentation


def test_run_cox_builds_the_weight_cone_once():
    # the presentation reads the p-divisor's weight cone, the only cone
    # built on the ten curve classes
    built = []
    cone_from_rays = polyhedra.cone_from_rays

    def spy(rays, dim):
        built.append(tuple(rays))
        return cone_from_rays(rays, dim)

    with ExitStack() as patches:
        for module in (engine, jobfile, polyhedra, torus):
            patches.enter_context(mock.patch.object(module, "cone_from_rays", spy))
        run_cox()
    assert [set(rays) for rays in built if len(rays) == 10] == [set(CURVE_CLASSES)]


def test_run_cox_reuses_the_section_bases_of_the_rays():
    with mock.patch.object(Variety, "_sections", autospec=True, side_effect=Variety._sections) as built, \
            mock.patch.object(PDivisor, "evaluate", autospec=True, side_effect=PDivisor.evaluate) as evaluate:
        result = run_cox()
    # the harvest evaluates each ray once and builds no sections; the pool
    # builds one section space per kept ray from the floor of that one
    # evaluation, the completion builds none, and the product reduction
    # reads its weights' classes off the integer support values, with no
    # evaluation
    assert built.call_count == len(result.reduced_rays) == 20
    weights = [c.args[1] for c in evaluate.call_args_list]
    assert len(weights) == len(set(weights)) == 20
    d = build_cox_pdivisor()
    y = d.variety
    pool = [
        GradedElement(s, u)
        for u in result.reduced_rays
        for s in sections(y, d.evaluate(u).floor())
    ]
    assert result.pool == tuple(_sorted_elements(pool))


def test_run_cox_classes_each_divisor_once():
    # the harvest's base point freeness test, the ray classes and the
    # product reduction share one class per divisor, and the negative
    # curves are listed once
    curves = []
    negative_curve_classes = BlowupOfP2.negative_curve_classes

    def listed(y):
        curves.append(negative_curve_classes(y))
        return curves[-1]

    with mock.patch.object(
        BlowupOfP2, "divisor_class", autospec=True, side_effect=BlowupOfP2.divisor_class
    ) as classed, mock.patch.object(BlowupOfP2, "negative_curve_classes", listed):
        run_cox()
    divisors = [c.args[1] for c in classed.call_args_list]
    assert len(divisors) == len(set(divisors)) <= 29
    assert curves and all(c is curves[0] for c in curves)


def test_a_pool_whose_weights_generate_the_lattice_needs_no_completion(result):
    plane = plane_pdivisor()
    y = plane.variety
    cases = [
        (build_cox_pdivisor(), list(result.pool)),
        (plane, [GradedElement(y.one(), (0, 1)), GradedElement(y.one(), (1, 1))]),
    ]
    for d, pool in cases:
        with mock.patch.object(Variety, "_sections", autospec=True, side_effect=Variety._sections) as built, \
                mock.patch.object(PDivisor, "evaluate", autospec=True, side_effect=PDivisor.evaluate) as evaluate:
            assert weight_lattice_completion(d, pool, {}) == []
        assert built.call_count == evaluate.call_count == 0


def test_minors_certificate(result):
    assert result.minors_match
    y = build_cox_pdivisor().variety
    mat = certificate_matrix(y)
    assert len(mat) == 5 and len(mat[0]) == 3
    gens = list(result.generators.elements)
    assert minors_certificate(y, gens)
    # a generator twice in place of another is not the multiset of minors
    assert not minors_certificate(y, gens[:-1] + gens[:1])
    assert not minors_certificate(y, gens[:-1])


def test_report_mentions_normality(result):
    assert any("Normal" in line for line in result.report)
    assert any("0 elements added" in line for line in result.report)


def test_negative_curves_of_surface():
    y = build_cox_pdivisor().variety
    classes = set(y.negative_curve_classes())
    assert classes == set(CURVE_CLASSES)


def test_the_curve_columns_are_the_extreme_rays_of_their_cone():
    # so a curve class decomposes only as itself, and the presentation
    # reads its variable with no search
    y = build_cox_pdivisor().variety
    columns = [y.class_vector(label) for label in CURVE_COLUMNS]
    assert sorted(polyhedra.cone_from_rays(columns, 5).rays) == sorted(columns)


@pytest.mark.parametrize(
    "points",
    [((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)), ((1, 1, 0), (0, 1, 2), (3, 0, 1), (1, -1, 1))],
    ids=["standard", "other"],
)
def test_the_curve_variables_carry_the_classes_of_their_curves(points):
    # the presentation reads the classes of its curve variables from the
    # surface, on any four points in general position
    x0, x1, x2 = (MPoly.variable(3, i) for i in range(3))
    y = BlowupOfP2(points, x0 + 5 * x1 + 7 * x2)
    assert tuple(y.class_vector(label) for label in CURVE_COLUMNS) == CURVE_CLASSES
