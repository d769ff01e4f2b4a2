"""Variety backends: sections, classes, base point freeness."""

from fractions import Fraction

import pytest

from helpers import plane_variety
from pdivgen.coxs5 import cox_surface
from pdivgen.mpoly import MPoly
from pdivgen.pdivisor import PDivisor
from pdivgen.polyhedra import cone_from_rays, dual_cone, tailed_polyhedron
from pdivgen.torus import invariantize_cell
from pdivgen.varieties import (
    NonIntegralDivisor,
    PointBase,
    QDivisor,
    UnsupportedBackend,
    ffe,
    in_span,
    is_basepoint_free,
    sections,
    sections_of_floor,
    span_dimension,
)


def test_point_base_sections():
    y = PointBase()
    assert sections(y, QDivisor({})).dimension == 1
    assert sections(y, QDivisor({"P": 1})).dimension == 1
    assert sections(y, QDivisor({"P": -1})).dimension == 0
    assert not is_basepoint_free(y, QDivisor({"P": -1}))


def test_projective_sections_dimensions():
    y = plane_variety()
    assert sections(y, QDivisor({"D": 1})).dimension == 10
    assert sections(y, QDivisor({"D": 1, "E": 2})).dimension == 55
    assert sections(y, QDivisor({})).dimension == 1


def test_projective_sections_with_negative_part():
    y = plane_variety()
    basis = sections(y, QDivisor({"D": 1, "E": -1}))
    # cubic numerator forced to be a multiple of the cubic form of E
    assert basis.dimension == 1
    elem = basis.elements[0]
    assert elem.num.divide_exact(y.form("E")) is not None


def test_sections_of_floor_and_integrality():
    y = plane_variety()
    with pytest.raises(NonIntegralDivisor):
        sections(y, QDivisor({"D": Fraction(1, 2)}))
    assert sections_of_floor(y, QDivisor({"D": Fraction(3, 2)})).dimension == 10


def test_blowup_class_vectors():
    y = cox_surface()
    assert y.class_vector("H") == (1, 0, 0, 0, 0)
    assert y.class_vector("E1") == (0, 1, 0, 0, 0)
    assert y.class_vector("E14") == (1, -1, 0, 0, -1)
    assert y.class_vector("E23") == (1, 0, -1, -1, 0)
    assert y.intersect((1, -1, -1, 0, 0), (1, -1, -1, 0, 0)) == -1


def test_blowup_class_vector_follows_a_new_form():
    y = cox_surface()
    x0, x1, _ = (MPoly.variable(3, i) for i in range(3))
    y.register_divisor("L", x0)
    assert y.class_vector("L")[0] == 1
    y.register_divisor("L", x0 * x1)
    assert y.class_vector("L")[0] == 2


def test_blowup_section_dimensions():
    y = cox_surface()
    # lines through one point, conics through all four, anticanonical
    assert sections(y, QDivisor({"H": 1, "E1": -1})).dimension == 2
    assert (
        sections(
            y, QDivisor({"H": 2, "E1": -1, "E2": -1, "E3": -1, "E4": -1})
        ).dimension
        == 2
    )
    assert (
        sections(
            y, QDivisor({"H": 3, "E1": -1, "E2": -1, "E3": -1, "E4": -1})
        ).dimension
        == 6
    )


def test_blowup_section_with_line_transform():
    y = cox_surface()
    basis = sections(y, QDivisor({"H": 1, "E1": -1, "E4": -1, "E14": -1}))
    assert basis.dimension == 1
    assert basis.elements[0].num.content_normalized().terms == {
        (0, 1, 0): Fraction(1),
        (0, 0, 1): Fraction(-1),
    }


def test_blowup_bpf():
    y = cox_surface()
    assert is_basepoint_free(y, QDivisor({"H": 1, "E1": -1}))
    assert not is_basepoint_free(y, QDivisor({"H": 1, "E1": -1, "E2": -1, "E3": -1}))
    assert is_basepoint_free(y, QDivisor({}))


def test_invariantizing_section():
    y = plane_variety()
    s = y.invariantizing_section(QDivisor({"E": 1}))
    # balanced cubic monomial over the non-invariant form
    assert s.den == (("E", 1),)
    assert s.num.terms == {(1, 1, 1): Fraction(1)}
    assert y.invariantizing_section(QDivisor({"D": 5})).is_one()


def test_span_helpers():
    y = plane_variety()
    x, yy, z = (MPoly.variable(3, i) for i in range(3))
    a = ffe(x, [("D", 1)])
    b = ffe(yy, [("D", 1)])
    target = ffe(x + yy, [("D", 1)])
    assert in_span(y, target, [a, b])
    assert not in_span(y, ffe(z, [("D", 1)]), [a, b])
    assert span_dimension(y, [a, b, target]) == 2


def test_form_power_follows_a_re_registered_form():
    y = plane_variety()
    x, yy, z = (MPoly.variable(3, i) for i in range(3))
    d2 = y.form_power("D", 2)
    e3 = y.form_power("E", 3)
    assert d2 == (x * yy * z) ** 2
    assert y.form_power("D", 2) is d2
    y.register_divisor("D", x * z)
    assert y.form_power("D", 2) == (x * z) ** 2
    assert y.form_power("E", 3) is e3
    # span tests see the new form: x z / D is the constant 1 now
    assert in_span(y, ffe(x * z, [("D", 1)]), [y.one()])


def test_blowup_has_no_invariantizing_section():
    y = cox_surface()
    omega = cone_from_rays([(1,)], 1)
    h = tailed_polyhedron([(1,)], dual_cone(omega).rays, 1)
    d = PDivisor(y, omega, {"H": h})
    # the twist of the cell asks the backend for an invariantizing section
    with pytest.raises(UnsupportedBackend):
        invariantize_cell(d, omega, None)
