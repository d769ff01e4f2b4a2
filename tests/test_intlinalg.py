"""Exact integer linear algebra."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    dense_hnf,
    dense_hnf_basis,
    dense_kernel_lattice,
    dense_solve_in_lattice,
    det,
    mat_mul,
)
from pdivgen.intlinalg import (
    hnf,
    hnf_basis,
    identity,
    invert_unimodular,
    kernel_lattice,
    primitive,
    rank,
    rref,
    scaled_inverse,
    solve_in_lattice,
)

small_int = st.integers(min_value=-9, max_value=9)


def small_matrix(rows, cols):
    return st.lists(
        st.lists(small_int, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


@given(st.one_of(small_matrix(2, 3), small_matrix(3, 3), small_matrix(4, 2)))
@settings(max_examples=120, deadline=None)
def test_hnf_is_unimodular_transform(a):
    h, u = hnf(a)
    assert mat_mul(u, a) == tuple(tuple(r) for r in h)
    assert abs(det(u)) == 1


@given(small_matrix(3, 3))
@settings(max_examples=120, deadline=None)
def test_hnf_shape(a):
    h, _ = hnf(a)
    # pivot columns strictly increase and pivots are positive
    last = -1
    for row in h:
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            continue
        assert nz[0] > last
        assert row[nz[0]] > 0
        last = nz[0]


@given(small_matrix(2, 4))
@settings(max_examples=80, deadline=None)
def test_kernel_annihilates_and_is_saturated(a):
    ker = kernel_lattice(a)
    for k in ker:
        assert all(sum(r[j] * k[j] for j in range(4)) == 0 for r in a)
    assert len(ker) == 4 - rank(list(zip(*a)))
    # saturation: doubling a kernel vector never creates a finer lattice
    for k in ker:
        half = tuple(x // 2 for x in k)
        if all(x % 2 == 0 for x in k) and any(half):
            assert solve_in_lattice(half, ker) is not None


# about 80% zeros, the rest in [-9, 9]
sparse_int = st.tuples(st.integers(0, 4), small_int).map(lambda t: t[1] if t[0] == 0 else 0)


@st.composite
def sparse_matrices(draw):
    """1-12 rows of width 1-16, some of them duplicates, sums or zero."""
    n = draw(st.integers(1, 16))
    rows = draw(st.lists(st.lists(sparse_int, min_size=n, max_size=n), min_size=1, max_size=12))
    index = st.integers(0, len(rows) - 1)
    extra = draw(
        st.lists(st.tuples(st.sampled_from("dsz"), index, index), max_size=12 - len(rows))
    )
    for kind, i, j in extra:
        if kind == "d":
            rows.append(list(rows[i]))
        elif kind == "s":
            rows.append([x + y for x, y in zip(rows[i], rows[j])])
        else:
            rows.append([0] * n)
    return draw(st.permutations(rows))


@given(sparse_matrices(), st.data())
@settings(max_examples=300, deadline=None)
# a pivot smaller in absolute value than the entry below it: q = 0, then -1
@example([[2, 1], [5, 3]], None)
@example([[-2, 0, 1], [5, 1, 0], [0, 0, 0], [3, 1, 1]], None)
@example([[0, 3], [0, 7], [0, 3]], None)
def test_sparse_elimination_matches_the_dense_one(a, data):
    assert hnf(a) == dense_hnf(a)
    assert hnf_basis(a) == dense_hnf_basis(a)
    assert kernel_lattice(a) == dense_kernel_lattice(a)
    coeffs = (
        data.draw(st.lists(small_int, min_size=len(a), max_size=len(a)))
        if data is not None
        else [1] * len(a)
    )
    inside = mat_mul([coeffs], a)[0]
    for target in (inside, (1,) + inside[1:], tuple(x * 2 + 1 for x in inside)):
        assert solve_in_lattice(target, a) == dense_solve_in_lattice(target, a)


@pytest.mark.parametrize(
    "fn, rows, widths",
    [
        (hnf, [[3], [2, 4]], "1 and 2"),
        (hnf_basis, [[3], [0, 5]], "1 and 2"),
        (hnf, [[2, 4], [3]], "2 and 1"),
        (rref, [[1, 2], [3]], "2 and 1"),
        (rank, [[1, 2], [3]], "2 and 1"),
    ],
)
def test_ragged_rows_are_rejected(fn, rows, widths):
    # zip would drop the entries past the shorter row, and indexing past it raises
    with pytest.raises(ValueError, match=f"widths {widths}"):
        fn(rows)


def test_det_known_values():
    assert det([[2, 1], [1, 2]]) == 3
    assert det([[1, 2, 3], [4, 5, 6], [7, 8, 10]]) == -3
    assert det(identity(4)) == 1
    assert det([[0, 1], [1, 0]]) == -1


def test_det_rejects_a_matrix_that_is_not_square():
    with pytest.raises(ValueError):
        det([[1, 0, 1], [0, 1, 1]])
    with pytest.raises(ValueError):
        det([[1, 0], [0, 1], [1, 1]])


@given(small_matrix(3, 3), small_matrix(3, 3))
@settings(max_examples=60, deadline=None)
def test_det_is_multiplicative(a, b):
    assert det(mat_mul(a, b)) == det(a) * det(b)


def test_primitive():
    assert primitive((2, 4, 6)) == (1, 2, 3)
    assert primitive((Fraction(1, 2), Fraction(3, 4))) == (2, 3)
    assert primitive((0, -2)) == (0, -1)


def test_lattice_membership_and_solve():
    basis = hnf_basis([[2, 0], [0, 3]])
    assert solve_in_lattice((4, 3), basis) is not None
    assert solve_in_lattice((1, 0), basis) is None
    coords = solve_in_lattice((4, 3), [[2, 0], [0, 3]])
    assert coords == (2, 1)
    assert solve_in_lattice((1, 1), [[2, 0], [0, 3]]) is None
    # dependent rows and zero rows are allowed
    rows = [[1, 2], [0, 0], [2, 4]]
    assert mat_mul([solve_in_lattice((2, 4), rows)], rows) == ((2, 4),)


@pytest.mark.parametrize(
    "target, basis",
    [((1, 0, 5), [(1, 0)]), ((1,), [(1, 0)]), ((4, 3), [(2, 0), (0, 3, 1)])],
)
def test_solve_in_lattice_rejects_a_target_of_another_width(target, basis):
    # zip would truncate the longer of the two and answer for the shorter
    with pytest.raises(ValueError, match="width"):
        solve_in_lattice(target, basis)


def test_invert_unimodular():
    u = [[1, 2], [0, 1]]
    inv = invert_unimodular(u)
    assert mat_mul(u, inv) == identity(2)


@st.composite
def _unimodular_matrices(draw):
    """A square matrix of size 1 to 5 built from the identity by elementary
    row operations: swaps, negations and adding a multiple of another row."""
    n = draw(st.integers(min_value=1, max_value=5))
    a = [list(row) for row in identity(n)]
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(("swap", "negate", "add")))
        if kind == "swap":
            a[i], a[j] = a[j], a[i]
        elif kind == "negate":
            a[i] = [-x for x in a[i]]
        elif i != j:
            q = draw(st.integers(min_value=-3, max_value=3))
            a[i] = [x + q * y for x, y in zip(a[i], a[j])]
    return a


@given(_unimodular_matrices(), st.sampled_from((0, 2, 3, 5)), st.data())
@settings(max_examples=200, deadline=None)
def test_invert_unimodular_is_exact_and_integral(u, k, data):
    n = len(u)
    inv = invert_unimodular(u)
    assert all(type(x) is int for row in inv for x in row)
    assert mat_mul(u, inv) == mat_mul(inv, u) == identity(n)
    # scaling a row by k gives |det| = k: singular for k = 0, and with an
    # inverse that is not integral for k >= 2
    i = data.draw(st.integers(0, n - 1))
    with pytest.raises(ValueError):
        invert_unimodular([[k * x for x in row] if r == i else row for r, row in enumerate(u)])


def test_invert_unimodular_rejects_matrices_that_are_not_square():
    for rows in ([[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [1, 1]]):
        with pytest.raises(ValueError):
            invert_unimodular(rows)
        with pytest.raises(ValueError):
            scaled_inverse(rows)


@given(st.one_of(small_matrix(2, 2), small_matrix(3, 3), small_matrix(4, 4)))
@settings(max_examples=80, deadline=None)
def test_inverse(a):
    if det(a) == 0:
        with pytest.raises(ValueError):
            scaled_inverse(a)
        return
    den, inv = scaled_inverse(a)
    assert den > 0
    assert mat_mul(a, inv) == tuple(tuple(den * x for x in row) for row in identity(len(a)))
    # den is the least common denominator of the inverse
    assert gcd(den, *(x for row in inv for x in row)) == 1


def test_rref_and_rank():
    red, piv = rref([[Fraction(2), Fraction(4)], [Fraction(1), Fraction(2)]])
    assert piv == [0]
    assert tuple(red[0]) == (Fraction(1), Fraction(2))
    assert len(rref([[1, 2], [2, 4], [0, 1]])[1]) == 2
    # negative pivots come out positive, each row primitive, zero rows last
    red, piv = rref([[0, -3, 6], [-2, 4, 0], [2, -1, -6]])
    assert (red, piv) == ([(1, 0, -4), (0, 1, -2), (0, 0, 0)], [0, 1])
