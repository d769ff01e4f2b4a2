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
    NonIntegralDivisor,
    PointBase,
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


def test_blowup_class_vector_follows_a_new_form():
    y = cox_surface()
    x0, x1, _ = (MPoly.variable(3, i) for i in range(3))
    y.register_divisor("L", x0)
    assert y.class_vector("L")[0] == 1
    assert y.class_of(QDivisor({"L": 2}))[0] == 2
    y.register_divisor("L", x0 * x1)
    assert y.class_vector("L")[0] == 2
    # the class of each divisor and the negative curves follow a new form
    assert y.class_of(QDivisor({"L": 2}))[0] == 4
    curves = y.negative_curve_classes()
    y.register_divisor("E12", x0 * y.form("E12"))
    assert y.class_vector("E12")[0] == 2
    assert y.negative_curve_classes() == tuple(
        y.class_vector("E12") if c == curves[4] else c for c in curves
    )


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
    h = tailed_polyhedron([(1,)], dual_cone(omega))
    d = PDivisor(y, omega, {"H": h})
    # the twist of the cell asks the backend for an invariantizing section
    with pytest.raises(UnsupportedBackend):
        invariantize_cell(d, omega, None)


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
