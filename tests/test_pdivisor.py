"""Polyhedral divisors: evaluation, subdivision, restriction, validation."""

from fractions import Fraction

import pytest

from helpers import format_report, plane_pdivisor, plane_variety, report_ok, report_unverifiable
from pdivgen.coxs5 import build_cox_pdivisor
from pdivgen.pdivisor import (
    NotSubcone,
    PDivisor,
    WeightOutsideCone,
    linearity_subdivision,
    restrict,
    validate,
)
from pdivgen.polyhedra import cone_from_rays, dual_cone, tailed_polyhedron
from pdivgen.varieties import PointBase, QDivisor


def test_evaluate_at_ray():
    d = plane_pdivisor()
    assert d.evaluate((1, 1)) == QDivisor({"D": Fraction(1, 2)})
    assert d.evaluate((-1, 1)) == QDivisor({"D": Fraction(1, 2)})
    assert d.evaluate((0, 1)) == QDivisor({"D": Fraction(1, 2), "E": 1})
    assert d.evaluate((0, 2)) == QDivisor({"D": 1, "E": 2})


def test_evaluate_format():
    d = plane_pdivisor()
    assert d.evaluate((0, 1)).format() == "1/2 D + 1 E"


def test_evaluate_outside_cone():
    d = plane_pdivisor()
    with pytest.raises(WeightOutsideCone):
        d.evaluate((2, 1))


def test_evaluate_is_superadditive():
    d = plane_pdivisor()
    weights = [(-1, 1), (0, 1), (1, 1), (-1, 2), (1, 3), (0, 2)]
    for u in weights:
        for v in weights:
            w = tuple(a + b for a, b in zip(u, v))
            left = d.evaluate(w)
            right = d.evaluate(u) + d.evaluate(v)
            for label in ("D", "E"):
                assert left.get(label) >= right.get(label)


def test_linearity_subdivision():
    d = plane_pdivisor()
    dom = linearity_subdivision(d)
    assert len(dom.cells) == 2
    assert sorted(dom.rays()) == [(-1, 1), (0, 1), (1, 1)]
    # the evaluation is linear on each cell
    for cell in dom.cells:
        a, b = cell.rays
        mid = tuple(x + y for x, y in zip(a, b))
        assert d.evaluate(mid) == d.evaluate(a) + d.evaluate(b)
    # with no coefficients the weight cone is the one cell
    omega = cone_from_rays([(1, 0), (0, 1)], 2)
    dom = linearity_subdivision(PDivisor(PointBase(), omega, {}))
    assert dom.cells == (omega,)
    assert dom.rays() == omega.rays


def test_restrict():
    d = plane_pdivisor()
    sub = cone_from_rays([(0, 1), (1, 1)], 2)
    r = restrict(d, sub)
    assert r.weight_cone.rays == sub.rays
    assert r.evaluate((1, 2)) == d.evaluate((1, 2))
    with pytest.raises(NotSubcone):
        restrict(d, cone_from_rays([(1, 0), (1, 1)], 2))


def test_constructor_rejects_wrong_tail():
    y = plane_variety()
    omega = cone_from_rays([(-1, 1), (1, 1)], 2)
    wrong_tail = cone_from_rays([(1, 0), (0, 1)], 2)
    with pytest.raises(ValueError):
        PDivisor(
            y,
            omega,
            {"D": tailed_polyhedron([(0, 0)], wrong_tail)},
        )


def test_validate_plane_example():
    report = validate(plane_pdivisor())
    assert report_ok(report)
    assert not report_unverifiable(report)


def test_validate_reports_checks():
    report = validate(plane_pdivisor())
    text = format_report(report)
    assert "pass" in text.lower() or "ok" in text.lower()


def test_validate_on_point_base():
    d = PDivisor(PointBase(), cone_from_rays([(1, 0), (1, 2)], 2), {})
    checks = validate(d)
    assert [c.verdict for c in checks] == ["pass", "pass", "pass"]
    assert checks[-1].detail == "base is a point"


def test_validate_bigness_on_blowup():
    cox = build_cox_pdivisor()
    omega = cox.weight_cone
    h = tailed_polyhedron([(1, 0, 0, 0, 0)], dual_cone(omega))
    d = PDivisor(cox.variety, omega, {"H": h})
    big = validate(d)[-1]
    assert (big.verdict, big.detail) == ("pass", "self-intersection 36 > 0")
