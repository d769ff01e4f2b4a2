"""Sparse multivariate polynomials over the rationals."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import evaluate
from pdivgen.mpoly import MPoly, monomials_of_degree, multiplicity_at


def poly_strategy(nvars=3):
    term = st.tuples(
        st.tuples(*[st.integers(min_value=0, max_value=3)] * nvars),
        st.integers(min_value=-5, max_value=5),
    )
    return st.lists(term, max_size=5).map(
        lambda ts: MPoly(nvars, {e: Fraction(c) for e, c in ts if c})
    )


@given(poly_strategy(), poly_strategy(), poly_strategy())
@settings(max_examples=100, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - a) == MPoly(3, {})


@given(poly_strategy(), poly_strategy())
@settings(max_examples=100, deadline=None)
def test_divide_exact_round_trip(a, b):
    if not a or not b:
        return
    q = (a * b).divide_exact(b)
    assert q == a


def test_divide_exact_failure():
    x = MPoly.variable(2, 0)
    y = MPoly.variable(2, 1)
    assert (x * x + y).divide_exact(x) is None


def test_powers_take_a_nonnegative_exponent():
    x = MPoly.variable(2, 0)
    assert (x + 1) ** 0 == MPoly.constant(2, 1)
    assert (x + 1) ** 3 == (x + 1) * (x + 1) * (x + 1)
    with pytest.raises(ValueError, match="negative exponent -1"):
        x ** -1


def test_total_degree_and_homogeneous():
    x, y, z = (MPoly.variable(3, i) for i in range(3))
    f = x * y * z
    assert f.total_degree() == 3
    assert f.is_homogeneous()
    assert not (f + x).is_homogeneous()


def test_monomials_of_degree():
    assert len(monomials_of_degree(3, 3)) == 10
    assert len(monomials_of_degree(3, 9)) == 55
    assert list(monomials_of_degree(2, 0)) == [(0, 0)]


def test_evaluate_and_shift():
    x, y = (MPoly.variable(2, i) for i in range(2))
    f = x * x + y + y
    assert evaluate(f, (Fraction(3), Fraction(1))) == 11
    shifted = f.shift((Fraction(1), Fraction(0)))
    assert evaluate(shifted, (Fraction(2), Fraction(1))) == evaluate(
        f, (Fraction(3), Fraction(1))
    )
    # the terms of degree below 2 of (x + 1)^2 + 2y: 1 + 2x + 2y
    assert f.shift((1, 0), 2) == MPoly(2, {(0, 0): 1, (1, 0): 2, (0, 1): 2})
    with pytest.raises(ValueError, match="a point of width 1 for 2 variables"):
        f.shift((1,))


def test_multiplicity_at():
    x, y, z = (MPoly.variable(3, i) for i in range(3))
    # nodal cubic: multiplicity two at (0 : 0 : 1)
    f = z * y * y - x * x * x - x * x * z
    assert multiplicity_at(f, (Fraction(0), Fraction(0), Fraction(1))) == 2
    line = x - y
    assert multiplicity_at(line, (Fraction(1), Fraction(1), Fraction(1))) == 1
    assert multiplicity_at(line, (Fraction(1), Fraction(0), Fraction(0))) == 0


def test_content_normalized():
    x = MPoly.variable(2, 0)
    f = MPoly(2, {(1, 0): Fraction(2, 3), (0, 1): Fraction(4, 3)})
    g = f.content_normalized()
    assert g.terms[(1, 0)] in (Fraction(1), Fraction(-1))
    ratio = g.terms[(0, 1)] / g.terms[(1, 0)]
    assert ratio == 2


# x0 in two variables and x2 in three: zip would truncate the exponents
_TWO_AND_THREE = pytest.mark.parametrize(
    "a, b", [(MPoly.variable(2, 0), MPoly.variable(3, 2)), (MPoly.variable(3, 2), MPoly.variable(2, 0))]
)


@_TWO_AND_THREE
def test_a_sum_refuses_another_number_of_variables(a, b):
    with pytest.raises(ValueError, match=f"polynomials in {a.nvars} and {b.nvars} variables"):
        a + b


@_TWO_AND_THREE
def test_a_difference_refuses_another_number_of_variables(a, b):
    with pytest.raises(ValueError, match=f"polynomials in {a.nvars} and {b.nvars} variables"):
        a - b


@_TWO_AND_THREE
def test_a_product_refuses_another_number_of_variables(a, b):
    with pytest.raises(ValueError, match=f"polynomials in {a.nvars} and {b.nvars} variables"):
        a * b
    # a scalar has no variables to count
    assert (2 * a) * Fraction(1, 2) == a == (a + 3) - 3
