"""The torus-action shortcut: invariantize, upgrade, downgrade."""

from collections import Counter
from fractions import Fraction

import pytest

from helpers import (
    PRINTED_HB_COLUMNS,
    SIGMA_TILDE_RAYS,
    plane_pdivisor,
    plane_variety,
    thirteen_generators,
)
from pdivgen.engine import algebra_membership
from pdivgen.pdivisor import linearity_subdivision
from pdivgen.polyhedra import dual_cone, hilbert_basis
from pdivgen.torus import (
    _invert,
    invariantize_cell,
    run_torus,
    standard_p2_fan_record,
    upgrade,
)
from pdivgen.varieties import ffe
from pdivgen.mpoly import MPoly


def _record_and_cells():
    d = plane_pdivisor()
    record = standard_p2_fan_record(d.variety)
    cells = linearity_subdivision(d).cells
    return d, record, cells


def test_standard_p2_record():
    d, record, _ = _record_and_cells()
    assert record.rays == ((1, 0), (0, 1), (-1, -1))


def test_element_divisor_of_coordinate_ratio():
    d, record, _ = _record_and_cells()
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


def test_upgraded_cone_matches_known_rays():
    d, record, cells = _record_and_cells()
    right = [c for c in cells if (1, 1) in c.rays][0]
    ray_coefficients, _ = invariantize_cell(d, right, record)
    sigma = upgrade(ray_coefficients, right, record)
    assert set(sigma.rays) == set(SIGMA_TILDE_RAYS)


def test_hilbert_basis_of_dual_matches_printed_columns():
    d, record, cells = _record_and_cells()
    right = [c for c in cells if (1, 1) in c.rays][0]
    ray_coefficients, _ = invariantize_cell(d, right, record)
    sigma = upgrade(ray_coefficients, right, record)
    hb = hilbert_basis(dual_cone(sigma))
    printed = set(PRINTED_HB_COLUMNS)
    assert len(printed) == 65
    assert set(hb) == printed


def test_mirror_cell_also_has_65():
    d, record, cells = _record_and_cells()
    left = [c for c in cells if (-1, 1) in c.rays][0]
    ray_coefficients, _ = invariantize_cell(d, left, record)
    sigma = upgrade(ray_coefficients, left, record)
    assert len(hilbert_basis(dual_cone(sigma))) == 65


def test_run_torus_weight_distribution():
    d, record, _ = _record_and_cells()
    result = run_torus(d.variety, d, record)
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
    d, record, _ = _record_and_cells()
    y = d.variety
    result = run_torus(y, d, record)
    for g in thirteen_generators(y):
        assert algebra_membership(y, g, result.elements)
