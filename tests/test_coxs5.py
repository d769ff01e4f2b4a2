"""The Cox construction on the four-point blow-up of the plane."""

from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from helpers import plane_pdivisor
from pdivgen import coxs5
from pdivgen.cli import build_pdivisor, build_variety, parse_job
from pdivgen.coxs5 import (
    CURVE_COLUMNS,
    build_cox_pdivisor,
    certificate_matrix,
    cox_surface,
    minors_certificate,
    presentation_text,
    run_cox,
    weight_cone,
)
from pdivgen.pdivisor import PDivisor, linearity_subdivision
from pdivgen.engine import GradedElement, _sorted_elements, weight_lattice_completion
from pdivgen.varieties import BlowupOfP2, QDivisor, Variety, sections


@pytest.fixture(scope="module")
def result():
    return run_cox()


def test_weight_cone_rays():
    omega = weight_cone()
    assert set(omega.rays) == set(CURVE_COLUMNS)
    assert len(omega.rays) == 10


def test_the_job_file_holds_the_cox_pdivisor():
    job = parse_job(Path("jobs/cox-s5.pdiv").read_text())
    parsed = build_pdivisor(job, build_variety(job))
    built = build_cox_pdivisor()
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


def test_presentation_builds_no_pruning_cone(result):
    # the presentation takes the weight cone, the cone of the curve
    # columns, from its caller and passes it to every search
    cone = weight_cone()
    with mock.patch.object(coxs5, "cone_from_rays", wraps=coxs5.cone_from_rays) as build:
        text = presentation_text(result.generators.elements, cone)
    assert build.call_count == 0
    assert text == result.presentation


def test_run_cox_builds_the_weight_cone_once():
    # the presentation reads the p-divisor's weight cone
    with mock.patch.object(coxs5, "weight_cone", wraps=coxs5.weight_cone) as build:
        run_cox()
    assert build.call_count == 1


def test_run_cox_reuses_the_section_bases_of_the_rays():
    with mock.patch.object(Variety, "_sections", autospec=True, side_effect=Variety._sections) as built, \
            mock.patch.object(PDivisor, "evaluate", autospec=True, side_effect=PDivisor.evaluate) as evaluate:
        result = run_cox()
    # the harvest evaluates each ray once and builds no sections; the pool
    # builds one section space per kept ray from the floor of that one
    # evaluation, the completion builds none, and the product reduction
    # evaluates each weight it classes once
    assert built.call_count == len(result.reduced_rays) == 20
    weights = [c.args[1] for c in evaluate.call_args_list]
    assert len(weights) == len(set(weights)) == 50
    y = cox_surface()
    d = build_cox_pdivisor(y)
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
    mat = certificate_matrix()
    assert len(mat) == 5 and len(mat[0]) == 3


def test_report_mentions_normality(result):
    assert any("Normal" in line for line in result.report)
    assert any("0 elements added" in line for line in result.report)


def test_negative_curves_of_surface():
    y = cox_surface()
    classes = set(y.negative_curve_classes())
    assert classes == set(CURVE_COLUMNS)
