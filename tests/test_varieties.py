"""Variety backends: sections, classes, base point freeness."""

from fractions import Fraction
from unittest import mock

import pytest

from helpers import plane_variety, span_dimension
from pdivgen.coxs5 import cox_surface
from pdivgen.mpoly import MPoly, multiplicity_at
from pdivgen.pdivisor import PDivisor
from pdivgen.polyhedra import cone_from_rays, dual_cone, tailed_polyhedron
from pdivgen.torus import invariantize_cell
from pdivgen.varieties import (
    BlowupOfP2,
    NonIntegralDivisor,
    PointBase,
    ProjectiveSpace,
    QDivisor,
    UnsupportedBackend,
    ffe,
    in_span,
    is_basepoint_free,
    sections,
    sections_of_floor,
)


def test_point_base_sections():
    y = PointBase()
    assert len(sections(y, QDivisor({}))) == 1
    assert len(sections(y, QDivisor({"P": 1}))) == 1
    assert len(sections(y, QDivisor({"P": -1}))) == 0
    assert not is_basepoint_free(y, QDivisor({"P": -1}))


@pytest.mark.parametrize("n", [0, -1])
def test_projective_space_has_dimension_at_least_one(n):
    # P^0 is a point, and the point base is PointBase
    with pytest.raises(ValueError, match="backend = point"):
        ProjectiveSpace(n)


def test_projective_sections_dimensions():
    y = plane_variety()
    assert len(sections(y, QDivisor({"D": 1}))) == 10
    assert len(sections(y, QDivisor({"D": 1, "E": 2}))) == 55
    assert len(sections(y, QDivisor({}))) == 1


def test_projective_sections_with_negative_part():
    y = plane_variety()
    basis = sections(y, QDivisor({"D": 1, "E": -1}))
    # cubic numerator forced to be a multiple of the cubic form of E
    assert len(basis) == 1
    elem = basis[0]
    assert elem.num.divide_exact(y.form("E")) is not None


def test_sections_of_floor_and_integrality():
    y = plane_variety()
    with pytest.raises(NonIntegralDivisor):
        sections(y, QDivisor({"D": Fraction(1, 2)}))
    assert len(sections_of_floor(y, QDivisor({"D": Fraction(3, 2)}))) == 10


def test_sections_of_an_unknown_label_raise_key_error():
    # the split skips only the blow-up's exceptional curves, which have no
    # form; any other label without a form is an error on both backends
    for y, known in ((plane_variety(), "D"), (cox_surface(), "H")):
        for c in (1, -1):
            with pytest.raises(KeyError):
                sections(y, QDivisor({"Q": c}))
            with pytest.raises(KeyError):
                sections(y, QDivisor({known: 2, "Q": c}))
    # E1 is a curve on the blow-up, but no label on the plane
    assert len(sections(cox_surface(), QDivisor({"H": 1, "E1": -1}))) == 2
    with pytest.raises(KeyError):
        sections(plane_variety(), QDivisor({"D": 1, "E1": -1}))


def test_blowup_class_vectors():
    y = cox_surface()
    assert y.class_vector("H") == (1, 0, 0, 0, 0)
    assert y.class_vector("E1") == (0, 1, 0, 0, 0)
    assert y.class_vector("E14") == (1, -1, 0, 0, -1)
    assert y.class_vector("E23") == (1, 0, -1, -1, 0)
    assert y.intersect((1, -1, -1, 0, 0), (1, -1, -1, 0, 0)) == -1


def test_class_vector_multiplicities_match_multiplicity_at():
    # the blow-up's section spaces read multiplicities from class_vector
    y = cox_surface()
    for label in sorted(y.forms()):
        mults = tuple(multiplicity_at(y.form(label), p) for p in y.points)
        assert y.class_vector(label)[1:] == tuple(-m for m in mults), label


def test_blowup_refuses_a_label_it_has():
    y = cox_surface()
    x0, x1, _ = (MPoly.variable(3, i) for i in range(3))
    y.register_divisor("L", x0)
    # classes are built once
    assert y.class_vector("L") is y.class_vector("L")
    assert y.class_of(QDivisor({"L": 2})) is y.class_of(QDivisor({"L": 2}))
    assert y.class_of(QDivisor({"L": 2}))[0] == 2
    curves = y.negative_curve_classes()
    assert y.negative_curve_classes() is curves
    # a registered label, H, a line through two points or an exceptional
    # curve keeps its form and class
    for label, form in (("L", x0 * x1), ("H", x1), ("E12", x0 * y.form("E12")), ("E1", x0)):
        with pytest.raises(ValueError, match=f"{label} is already a prime divisor"):
            y.register_divisor(label, form)
    assert y.form("L") == x0
    assert y.class_vector("L")[0] == 1
    assert y.negative_curve_classes() is curves
    assert "E1" not in y.forms()


def test_floors_and_classes_are_ints():
    y = cox_surface()
    d = QDivisor({"H": Fraction(5, 2), "E1": Fraction(-1, 3), "E12": Fraction(4, 2)})
    assert d.coeffs["E12"] == 2 and type(d.coeffs["E12"]) is int
    floor = d.floor()
    assert floor.coeffs == {"H": 2, "E1": -1, "E12": 2}
    assert all(type(v) is int for v in floor.coeffs.values())
    cls = y.divisor_class(floor)
    assert cls == (4, -3, -2, 0, 0)
    assert all(type(v) is int for v in cls)


def test_blowup_section_dimensions():
    y = cox_surface()
    # lines through one point, conics through all four, anticanonical
    assert len(sections(y, QDivisor({"H": 1, "E1": -1}))) == 2
    assert len(sections(y, QDivisor({"H": 2, "E1": -1, "E2": -1, "E3": -1, "E4": -1}))) == 2
    assert len(sections(y, QDivisor({"H": 3, "E1": -1, "E2": -1, "E3": -1, "E4": -1}))) == 6


def test_blowup_section_with_line_transform():
    y = cox_surface()
    basis = sections(y, QDivisor({"H": 1, "E1": -1, "E4": -1, "E14": -1}))
    assert len(basis) == 1
    assert basis[0].num.content_normalized().terms == {
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
    # a denominator given up front must cover every section's
    assert in_span(y, target, iter([a, b]), {"D": 2, "E": 1})
    for den in ({"D": 1}, {"D": 1, "E": 3}):
        with pytest.raises(ValueError, match=r"the denominator D\^2 of a section exceeds"):
            in_span(y, target, [ffe(x, [("D", 2)])], den)
    # the target's row is read first
    for den in ({}, {"E": 3}):
        with pytest.raises(ValueError, match=r"the denominator D\^1 of a section exceeds"):
            in_span(y, target, [ffe(x, [("D", 2)])], den)


def test_form_power_is_built_once_and_a_form_is_registered_once():
    y = plane_variety()
    x, yy, z = (MPoly.variable(3, i) for i in range(3))
    d2 = y.form_power("D", 2)
    assert d2 == (x * yy * z) ** 2
    assert y.form_power("D", 2) is d2
    with pytest.raises(ValueError, match="D is already a prime divisor"):
        y.register_divisor("D", x * z)
    assert y.form_power("D", 2) is d2
    # span tests see the registered form: x z / D is not a constant
    assert not in_span(y, ffe(x * z, [("D", 1)]), [y.one()])


def test_blowup_has_no_invariantizing_section():
    y = cox_surface()
    omega = cone_from_rays([(1,)], 1)
    h = tailed_polyhedron([(1,)], dual_cone(omega))
    d = PDivisor(y, omega, {"H": h})
    # the twist of the cell asks the backend for an invariantizing section
    with pytest.raises(UnsupportedBackend, match="the blowup-p2 base has no torus action"):
        invariantize_cell(d, omega)


@pytest.mark.parametrize(
    "coeffs, verdict",
    [
        ({}, ("fail", "D.H = 0 <= 0")),
        ({"E1": 2}, ("fail", "D.H = 0 <= 0")),
        ({"H": -1, "E1": 3}, ("fail", "D.H = -1 <= 0")),
        # H-degree 1, self-intersection -1: no criterion decides
        ({"E12": 1}, ("UNVERIFIABLE", "no sufficient bigness criterion applies")),
        ({"H": 1}, ("pass", "self-intersection 1 > 0")),
    ],
)
def test_blowup_bigness_fails_a_class_of_nonpositive_h_degree(coeffs, verdict):
    # H is nef and big, so a big class D has D.H > 0
    assert cox_surface().bigness(QDivisor(coeffs)) == verdict


def test_blowup_function_field_generators_are_sides_of_a_triangle():
    # E23, E13 and E12 are the coordinate lines on the standard points
    assert cox_surface().function_field_generators() == ((0, 2), (1, 2))
    x0, x1, x2 = (MPoly.variable(3, i) for i in range(3))
    y = BlowupOfP2(((1, 1, 0), (0, 1, 2), (3, 0, 1), (1, -1, 1)), x0 + 5 * x1 + 7 * x2)
    # no side is a coordinate line here, so each is an atom of its own
    assert y.function_field_generators() == tuple(
        (y.atoms.index(num), y.atoms.index("E12")) for num in ("E23", "E13")
    )


def test_blowup_refuses_a_line_through_a_point():
    x0, x1, x2 = (MPoly.variable(3, i) for i in range(3))
    points = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3))
    with pytest.raises(ValueError, match=r"H passes through the blow-up point \(1, 2, 3\)"):
        BlowupOfP2(points, x0 + x1 - x2)
    assert BlowupOfP2(points, x0 + x1 + x2).class_vector("H") == (1, 0, 0, 0, 0)


def test_atoms_and_coordinate_labels():
    y = plane_variety()
    x, yy, _ = (MPoly.variable(3, i) for i in range(3))
    # D = x y z is monomial, so only E joins the coordinate hyperplanes
    assert y.atoms == ("coord:x", "coord:y", "coord:z", "E")
    with mock.patch.object(y, "register_divisor", wraps=y.register_divisor) as register:
        assert y.coordinate_label(1) == "coord:y"
        assert y.coordinate_label(1) == "coord:y"
    assert register.call_count == 1
    assert y.form("coord:y") == yy
    assert y.label_exponents("coord:y") == [0, 1, 0, 0]
    assert y.label_exponents("D") == [1, 1, 1, 0]
    assert y.label_exponents("E") == [0, 0, 0, 1]
    # a new non-monomial form is a new atom
    y.register_divisor("F", x + yy)
    assert y.atoms == ("coord:x", "coord:y", "coord:z", "E", "F")
    # a hyperplane label takes only its own coordinate, so no atom repeats
    y.register_divisor("coord:x", x * 2)
    for form in (x + yy, yy):
        with pytest.raises(ValueError):
            y.register_divisor("coord:x", form)
    assert y.atoms == ("coord:x", "coord:y", "coord:z", "E", "F")


def test_exponents_keep_a_residual_that_does_not_factor():
    y = plane_variety()
    x, yy, z = (MPoly.variable(3, i) for i in range(3))
    e = y.form("E")
    vec, rest = y.exponents(ffe((x + yy) * z * e * 3, [("D", 1), ("E", 2)]))
    # (x + y) z / (x y z E): z cancels, x and y appear in no term of x z + y z
    assert vec == [-1, -1, 0, -1]
    assert rest == (x + yy) * z * 3
    vec, rest = y.exponents(ffe(x**2 * z * e * 3, [("D", 1)]))
    assert (vec, rest) == ([1, -1, 0, 1], x**2 * z * 3)
    assert y.from_exponents(vec) == ffe(x * e, [("coord:y", 1)])
    with pytest.raises(ZeroDivisionError):
        y.exponents(ffe(MPoly(3), [("D", 1)]))


def test_a_function_field_power_takes_a_nonnegative_exponent():
    x = MPoly.variable(3, 0)
    f = ffe(x + 1, [("D", 1)])
    assert f**2 == ffe((x + 1) * (x + 1), [("D", 2)])
    # a negative power is an inverse, which only a product of atoms has
    with pytest.raises(ValueError, match="negative exponent -2"):
        f**-2
