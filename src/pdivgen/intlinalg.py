"""Exact integer and rational linear algebra.

All matrices are plain tuples of tuples of Python ints (arbitrary
precision); rational vectors use fractions.Fraction.  Row convention
throughout: a lattice is the set of integer combinations of the rows of
its basis matrix.

Hermite normal forms come from one elimination on sparse rows, each a
dict of its nonzero entries.  Only ``hnf`` and the callers that read the
transform (``kernel_lattice``, ``solve_in_lattice``) carry it, as identity
columns appended to the rows; ``hnf_basis`` builds none.  Everything over
Q (``rank``, ``rref`` and what reads it) goes through one fraction-free
forward elimination, ``reduce_row``; the span tests of ``varieties`` run
the same elimination on sparse rows.  There is no determinant:
each unimodularity test reads work its caller already does.
"""

from fractions import Fraction
from math import gcd, lcm


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _width(rows):
    """The common length of the rows, 0 for none; a ValueError names two that differ."""
    n = len(rows[0]) if rows else 0
    for row in rows:
        if len(row) != n:
            raise ValueError(f"rows of widths {n} and {len(row)} in one matrix")
    return n


def _sparse(rows, transform):
    """Rows as dicts of their nonzero entries, and their common width n.

    With ``transform`` row i also holds a 1 in column n + i, so the rows are
    those of [A | I].
    """
    out = []
    n = _width(rows)
    for i, row in enumerate(rows):
        d = {j: x for j, x in enumerate(row) if x}
        if transform:
            d[n + i] = 1
        out.append(d)
    return out, n


def _sub(x, q, y):
    """x -= q * y on sparse rows, q != 0: an entry that cancels was in x."""
    for j, v in y.items():
        w = x.get(j, 0) - q * v
        if w:
            x[j] = w
        else:
            del x[j]


def _dense(row, lo, width):
    """Columns lo .. lo + width - 1 of a sparse row, as a tuple."""
    out = [0] * width
    for j, x in row.items():
        if lo <= j < lo + width:
            out[j - lo] = x
    return tuple(out)


def _hermite(a, n):
    """Row Hermite normal form, in place, of sparse rows with pivots in 0 .. n-1.

    Pivots positive, entries above each pivot reduced into [0, pivot),
    rows without a pivot last.  Columns from n on (a transform) are only
    carried along.  Returns the pivot columns, one per leading row.  The
    order of the row operations fixes the transform, and with it the
    coordinates ``solve_in_lattice`` returns.
    """
    m = len(a)
    pivots = []
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if c in a[i]), None)
        if piv is None:
            continue
        p = a[piv]
        a[piv] = a[r]
        # clear below the pivot with exact gcd steps
        for i in range(r + 1, m):
            b = a[i]
            while c in b:
                q = p[c] // b[c]
                if q:
                    _sub(p, q, b)
                p, b = b, p
            a[i] = b
        if p[c] < 0:
            for j in p:
                p[j] = -p[j]
        # reduce entries above the pivot
        for i in range(r):
            q = a[i].get(c, 0) // p[c]
            if q:
                _sub(a[i], q, p)
        a[r] = p
        pivots.append(c)
    return pivots


def hnf(rows):
    """Row Hermite normal form.

    Returns (H, U) with U unimodular, H = U * rows, pivots positive,
    entries above each pivot reduced into [0, pivot), zero rows last.
    """
    a, n = _sparse(rows, True)
    _hermite(a, n)
    return tuple(_dense(row, 0, n) for row in a), tuple(_dense(row, n, len(a)) for row in a)


def hnf_basis(rows):
    """Nonzero rows of the HNF: a canonical lattice basis."""
    a, n = _sparse(rows, False)
    return tuple(_dense(row, 0, n) for row in a[: len(_hermite(a, n))])


def kernel_lattice(rows):
    """Z-basis of the integer kernel {x : rows . x = 0} (as rows).

    The returned lattice is saturated: it is the full intersection of the
    rational kernel with Z^n.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    # HNF of the transpose augmented with an identity: zero rows of the
    # transformed matrix expose kernel vectors in their transform part
    a, _ = _sparse(tuple(zip(*rows, strict=True)), True)
    ker = [{j - m: x for j, x in row.items()} for row in a[len(_hermite(a, m)) :]]
    return tuple(_dense(row, 0, n) for row in ker[: len(_hermite(ker, n))])


def primitive(vec):
    """Scale a rational vector to a primitive integer vector (same ray)."""
    if all(type(x) is int for x in vec):
        g = gcd(*vec)
        # from a list, so the tuple is allocated at its final size
        return tuple([x // g for x in vec]) if g > 1 else tuple(vec)
    fr = [Fraction(x) for x in vec]
    scale = lcm(*(x.denominator for x in fr))
    return primitive([int(x * scale) for x in fr])


def solve_in_lattice(target, basis):
    """Integer coordinates of target in the row lattice, or None.

    basis rows need not be in HNF and may be dependent.  The coordinates
    are those the HNF transform U of ``hnf(basis)`` gives: back-substitute
    target into H and combine the rows of U.  Which coordinates come back
    matters, since ``engine.quotient_field_complete`` takes the reserve
    elements whose coordinate is nonzero.  Raises ValueError when a row's
    width is not the target's.
    """
    if any(len(row) != len(target) for row in basis):
        raise ValueError(f"basis rows of a width other than that of {tuple(target)}")
    if not basis:
        return None if any(target) else ()
    a, n = _sparse(basis, True)
    v = list(target)
    coeffs = [0] * len(basis)
    for c, row in zip(_hermite(a, n), a):
        if v[c] % row[c]:
            return None
        q = v[c] // row[c]
        for j, x in row.items():
            if j < n:
                v[j] -= q * x
            else:
                coeffs[j - n] += q * x
    if any(v):
        return None
    return tuple(coeffs)


def reduce_row(echelon, v):
    """Reduce the integer row v against the echelon rows {pivot: row}.

    Fraction free, as in Bareiss 1968: against the row r with pivot p,
    v <- r[p] v - v[p] r (both factors divided by their gcd first), then v is
    divided by its content.  Returns (pivot, reduced row) at the first
    nonzero column that is no row's pivot, or None when v reduces to zero.
    """
    width = len(v)
    p = next((j for j, x in enumerate(v) if x), width)
    while p < width:
        r = echelon.get(p)
        if r is None:
            return p, v
        g = gcd(r[p], v[p])
        a, b = r[p] // g, v[p] // g
        v = [a * x - b * z for x, z in zip(v, r)]
        g = gcd(*v)
        if g > 1:
            v = [x // g for x in v]
        p = next((j for j in range(p + 1, width) if v[j]), width)
    return None


def echelon(rows):
    """Integer row echelon of the rows, keyed by pivot column."""
    echelon = {}
    for v in rows:
        reduced = reduce_row(echelon, v)
        if reduced is not None:
            p, r = reduced
            echelon[p] = r
    return echelon


def rank(rows):
    """Rank of rational rows: the size of their echelon."""
    _width(rows)  # reduce_row zips, so ragged rows are caught here
    return len(echelon([primitive(row) for row in rows]))


def rref(rows):
    """Fraction-free reduced row echelon form of rational rows.

    ``echelon`` eliminates forward; an upward pass, from the last pivot to
    the first, clears each pivot column in the rows above.  Returns
    (rref_rows, pivot_columns); row i is the primitive integer multiple of
    row i of the rational rref: positive pivots, zero rows last.
    """
    rows = [primitive(row) for row in rows]
    n = _width(rows)
    ech = echelon(rows)
    pivots = sorted(ech)
    red = [ech[p] for p in pivots]
    for k in range(len(red) - 1, 0, -1):
        p, r = pivots[k], red[k]
        for i in range(k):
            v = red[i]
            if v[p]:
                g = gcd(r[p], v[p])
                a, b = r[p] // g, v[p] // g
                red[i] = [a * x - b * y for x, y in zip(v, r)]
    out = []
    for p, row in zip(pivots, red):
        g = gcd(*row) if row[p] > 0 else -gcd(*row)
        # from a list, as in primitive
        out.append(tuple(row) if g == 1 else tuple([x // g for x in row]))
    out.extend([(0,) * n] * (len(rows) - len(out)))
    return out, pivots


def rational_kernel(rows, width):
    """Integer kernel basis read off the rref: one vector per non-pivot
    column j, a multiple of the rational one with 1 at j."""
    red, pivots = rref(rows)
    den = lcm(*(r[p] for r, p in zip(red, pivots)))
    basis = []
    for j in range(width):
        if j not in pivots:
            vec = [0] * width
            vec[j] = den
            for r, p in zip(red, pivots):
                vec[p] = -r[j] * (den // r[p])
            basis.append(vec)
    return basis


def scaled_inverse(rows):
    """(L, L * A^-1), L > 0 the least common denominator of A^-1: rref of [A | I]."""
    n = len(rows)
    red, pivots = rref(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    )
    if n and len(red[0]) != 2 * n:  # [A | I] is n wide plus the width of A
        raise ValueError("inverse of a matrix that is not square")
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    # row i is (D_i e_i | D_i * row i of A^-1)
    den = lcm(*(row[i] for i, row in enumerate(red)))
    return den, [[x * (den // row[i]) for x in row[n:]] for i, row in enumerate(red)]


def invert_unimodular(rows):
    """Inverse of a unimodular integer matrix (again integral)."""
    den, inv = scaled_inverse(rows)
    if den != 1:
        raise ValueError("matrix is not unimodular")
    return inv
