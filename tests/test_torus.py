"""The torus-action shortcut: invariantize, upgrade, downgrade."""

from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest

from helpers import (
    PRINTED_HB_COLUMNS,
    SIGMA_TILDE_RAYS,
    plane_pdivisor,
    plane_variety,
    thirteen_generators,
)
from pdivgen.engine import algebra_membership
from pdivgen.pdivisor import PDivisor, linearity_subdivision
from pdivgen.polyhedra import cone_from_rays, dual_cone, hilbert_basis
from pdivgen.torus import _invert, invariantize_cell, run_torus, torus, upgrade
from pdivgen.varieties import PointBase, ProjectiveSpace, ffe
from pdivgen.mpoly import MPoly


def _pdivisor_and_cells():
    d = plane_pdivisor()
    cells = linearity_subdivision(d).cells
    return d, cells


@pytest.mark.parametrize("n", [1, 2, 3])
def test_torus_of_projective_space_is_the_standard_fan(n):
    y = ProjectiveSpace(n)
    rays, characters = torus(y)
    # e_i for x_i = 0 and -(e_1 + ... + e_n) for the last coordinate
    unit = [tuple(int(i == k) for k in range(n)) for i in range(n)]
    assert rays == (*unit, tuple([-1] * n))
    xn = y.coordinate_label(n)
    assert characters == tuple(ffe(MPoly.variable(n + 1, i), [(xn, 1)]) for i in range(n))


def test_torus_of_the_plane_is_read_from_its_coordinates():
    # the fan of P^2 and the characters x/z, y/z of its last chart
    y = plane_variety()
    rays, characters = torus(y)
    assert rays == ((1, 0), (0, 1), (-1, -1))
    x, yy, _ = (MPoly.variable(3, i) for i in range(3))
    assert characters == (ffe(x, [("coord:z", 1)]), ffe(yy, [("coord:z", 1)]))


def test_element_divisor_of_coordinate_ratio():
    d, _ = _pdivisor_and_cells()
    y = d.variety
    x, yy, z = (MPoly.variable(3, i) for i in range(3))
    vec, _ = y.exponents(ffe(x, [("D", 1)]).normalized())
    # x / (x y z) vanishes to order -1 along y = 0 and z = 0, and E is no factor
    assert y.atoms == ("coord:x", "coord:y", "coord:z", "E")
    assert vec == [0, -1, -1, 0]


def test_invert_gives_the_exact_inverse():
    y = plane_variety()
    x, yy, z = (MPoly.variable(3, i) for i in range(3))
    elem = ffe(x * y.form("E") * 3, [("D", 1)])
    inv = _invert(y, elem)
    assert inv == ffe(yy * z * Fraction(1, 3), [("E", 1)])
    # 3 x E / (x y z) is 3 E / (y z)
    assert _invert(y, inv) == ffe(y.form("E") * 3, [("coord:y", 1), ("coord:z", 1)])
    with pytest.raises(ValueError):
        _invert(y, ffe((x + yy) * z, [("D", 1)]))


@pytest.mark.parametrize(
    "cell",
    [
        # the whole weight cone: rays (-1, 1) (1, 1), |det| = 2
        cone_from_rays([(-1, 1), (1, 1)], 2),
        # the zero cone, whose empty ray matrix inverts
        cone_from_rays([], 2),
    ],
)
def test_invariantize_cell_refuses_a_cell_that_is_not_unimodular(cell):
    d, _ = _pdivisor_and_cells()
    with mock.patch.object(PDivisor, "evaluate", autospec=True) as evaluate:
        with pytest.raises(ValueError, match="needs a unimodular simplicial cell"):
            invariantize_cell(d, cell)
    # refused before any ray is evaluated
    evaluate.assert_not_called()


def test_upgraded_cone_matches_known_rays():
    d, cells = _pdivisor_and_cells()
    right = [c for c in cells if (1, 1) in c.rays][0]
    heights, _, _ = invariantize_cell(d, right)
    sigma = upgrade(heights, right)
    assert set(sigma.rays) == set(SIGMA_TILDE_RAYS)


def test_hilbert_basis_of_dual_matches_printed_columns():
    d, cells = _pdivisor_and_cells()
    right = [c for c in cells if (1, 1) in c.rays][0]
    heights, _, _ = invariantize_cell(d, right)
    sigma = upgrade(heights, right)
    hb = hilbert_basis(dual_cone(sigma))
    printed = set(PRINTED_HB_COLUMNS)
    assert len(printed) == 65
    assert set(hb) == printed


def test_mirror_cell_also_has_65():
    d, cells = _pdivisor_and_cells()
    left = [c for c in cells if (-1, 1) in c.rays][0]
    heights, _, _ = invariantize_cell(d, left)
    sigma = upgrade(heights, left)
    assert len(hilbert_basis(dual_cone(sigma))) == 65


def test_run_torus_weight_distribution():
    d, _ = _pdivisor_and_cells()
    result = run_torus(d.variety, d)
    assert result.normalization_status == "SaturatedToric"
    counts = Counter(e.weight for e in result.elements)
    assert counts == {
        (0, 2): 54,
        (0, 1): 20,
        (-1, 2): 18,
        (1, 2): 18,
        (-2, 2): 9,
        (2, 2): 9,
        (-1, 1): 1,
        (1, 1): 1,
    }
    assert len(result.elements) == 130


def test_torus_output_contains_known_generators():
    d, _ = _pdivisor_and_cells()
    y = d.variety
    result = run_torus(y, d)
    for g in thirteen_generators(y):
        assert algebra_membership(y, g, result.elements)


def test_torus_route_over_a_point_is_a_hilbert_basis():
    # a point has the torus of rank 0, so each upgraded cone is its cell's
    omega = cone_from_rays([(1, 0), (1, 3)], 2)
    d = PDivisor(PointBase(), omega, {})
    result = run_torus(d.variety, d)
    assert {e.weight for e in result.elements} == set(hilbert_basis(omega))
