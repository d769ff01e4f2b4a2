"""Exact integer and rational linear algebra.

All matrices are plain tuples of tuples of Python ints (arbitrary
precision); rational vectors use fractions.Fraction.  Row convention
throughout: a lattice is the set of integer combinations of the rows of
its basis matrix.
"""

from fractions import Fraction
from math import gcd, lcm


def _as_rows(mat):
    return [list(row) for row in mat]


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def hnf(rows):
    """Row Hermite normal form.

    Returns (H, U) with U unimodular, H = U * rows, pivots positive,
    entries above each pivot reduced into [0, pivot), zero rows last.
    """
    a = _as_rows(rows)
    m = len(a)
    n = len(a[0]) if m else 0
    u = _as_rows(identity(m))
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if a[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        u[r], u[piv] = u[piv], u[r]
        # clear below the pivot with exact gcd steps
        for i in range(r + 1, m):
            while a[i][c] != 0:
                q = a[r][c] // a[i][c]
                a[r] = [x - q * y for x, y in zip(a[r], a[i])]
                u[r] = [x - q * y for x, y in zip(u[r], u[i])]
                a[r], a[i] = a[i], a[r]
                u[r], u[i] = u[i], u[r]
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
            u[r] = [-x for x in u[r]]
        # reduce entries above the pivot
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
        if r == m:
            break
    return tuple(tuple(row) for row in a), tuple(tuple(row) for row in u)


def hnf_basis(rows):
    """Nonzero rows of the HNF: a canonical lattice basis."""
    h, _ = hnf(rows)
    return tuple(row for row in h if any(row))


def kernel_lattice(rows):
    """Z-basis of the integer kernel {x : rows . x = 0} (as rows).

    The returned lattice is saturated: it is the full intersection of the
    rational kernel with Z^n.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    # HNF of the transpose augmented with an identity: zero columns of the
    # transformed matrix expose kernel vectors.
    at = tuple(zip(*rows, strict=True))
    h, u = hnf(at)
    ker = [u[i] for i in range(n) if not any(h[i])]
    return hnf_basis(ker) if ker else tuple()


def rank(rows):
    return len(rref(rows)[1])


def det(rows):
    """Determinant of a square integer matrix, fraction-free Bareiss."""
    a = _as_rows(rows)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant of a matrix that is not square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def primitive(vec):
    """Scale a rational vector to a primitive integer vector (same ray)."""
    if all(type(x) is int for x in vec):
        g = gcd(*vec)
        # from a list, so the tuple is allocated at its final size
        return tuple([x // g for x in vec]) if g > 1 else tuple(vec)
    fr = [Fraction(x) for x in vec]
    if not any(fr):
        return tuple(0 for _ in fr)
    scale = lcm(*(x.denominator for x in fr))
    ints = [int(x * scale) for x in fr]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def invert_unimodular(rows):
    """Inverse of a unimodular integer matrix (again integral)."""
    n = len(rows)
    h, u = hnf(rows)
    if h != identity(n):
        raise ValueError("matrix is not unimodular")
    return u


def solve_in_lattice(target, basis):
    """Integer coordinates of target in the row lattice, or None.

    basis rows need not be in HNF and may be dependent; any valid
    coordinate vector is returned.  Raises ValueError when a row's width
    is not the target's.
    """
    if any(len(row) != len(target) for row in basis):
        raise ValueError(f"basis rows of a width other than that of {tuple(target)}")
    if not basis:
        return None if any(target) else ()
    h, u = hnf(basis)
    nz = [i for i, row in enumerate(h) if any(row)]
    v = list(target)
    coeffs = [0] * len(basis)
    for i in nz:
        row = h[i]
        c = next(j for j, x in enumerate(row) if x)
        if v[c] % row[c]:
            return None
        q = v[c] // row[c]
        v = [x - q * y for x, y in zip(v, row)]
        for k in range(len(basis)):
            coeffs[k] += q * u[i][k]
    if any(v):
        return None
    return tuple(coeffs)


def rref(rows):
    """Fraction-free reduced row echelon form of rational rows (Bareiss 1968).

    Returns (rref_rows, pivot_columns); row i is the primitive integer
    multiple of row i of the rational rref: positive pivots, zero rows last.
    """
    a = [primitive(row) for row in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    pivots = []
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        if a[r][c] < 0:
            a[r] = tuple([-x for x in a[r]])  # from a list, as in primitive
        f = a[r][c]
        for i in range(m):
            g = a[i][c]
            if i != r and g:
                a[i] = primitive([f * x - g * y for x, y in zip(a[i], a[r])])
        pivots.append(c)
    return a, pivots


def scaled_inverse(rows):
    """(L, L * A^-1), L > 0 the least common denominator of A^-1: rref of [A | I]."""
    n = len(rows)
    red, pivots = rref(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    )
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    # row i is (D_i e_i | D_i * row i of A^-1)
    den = lcm(*(row[i] for i, row in enumerate(red)))
    return den, [[x * (den // row[i]) for x in row[n:]] for i, row in enumerate(red)]
