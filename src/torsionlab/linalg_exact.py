"""Exact rational and integer linear algebra.

Matrices are lists of lists.  Rational routines work over ``fractions.Fraction``
and never touch floats; the Smith normal form works over Python ints, so
there is no overflow anywhere.

Products are scaled-integer products: each operand is written as an integer
matrix over one common denominator (the lcm of its entry denominators), the
integer matrices are multiplied -- in numpy int64 when a magnitude bound
proves no entry can overflow, with Python ints otherwise -- and each result
entry is one normalized ``Fraction(v, den_a * den_b)``.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from fractions import Fraction

import numpy as np

from .errors import FloatRangeError


class SingularMatrixError(ValueError):
    pass


def frac(x):
    """Coerce an entry to Fraction. Floats are rejected: exactness guard."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational entry: {x!r}")


def is_exact_entry(x):
    return isinstance(x, (int, Fraction, str)) and not isinstance(x, bool)


def fmat(rows):
    return [[frac(x) for x in row] for row in rows]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def zeros(r, c):
    return [[Fraction(0)] * c for _ in range(r)]


def shape(a):
    return (len(a), len(a[0]) if a else 0)


def transpose(a):
    r, c = shape(a)
    return [[a[i][j] for i in range(r)] for j in range(c)]


def _scaled_integers(m):
    """(ints, den, peak) with m == ints / den entrywise.

    ``den`` is the lcm of the entry denominators and ``peak`` the largest
    absolute value in ``ints`` (0 for a zero or empty matrix).
    """
    den = math.lcm(*{x.denominator for row in m for x in row})
    if den == 1:
        ints = [[x.numerator for x in row] for row in m]
    else:
        ints = [[x.numerator * (den // x.denominator) for x in row] for row in m]
    peak = max((abs(v) for row in ints for v in row), default=0)
    return ints, den, peak


def _int_matmul(ia, pa, ib, pb):
    """Exact product of integer matrices whose entries are bounded by pa, pb.

    numpy int64 is used when pa * pb * inner < 2**62, so no partial sum can
    overflow; otherwise the product is taken in Python ints.
    """
    inner = len(ib)
    cols = len(ib[0]) if ib else 0
    if not (pa and pb):
        return [[0] * cols for _ in ia]
    if pa * pb * inner < 2**62:
        return (np.array(ia, dtype=np.int64) @ np.array(ib, dtype=np.int64)).tolist()
    bt = list(zip(*ib))
    return [[sum(map(operator.mul, row, col)) for col in bt] for row in ia]


def matmul(a, b):
    """Exact product of rational matrices; every entry is a Fraction."""
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ValueError(f"shape mismatch {shape(a)} @ {shape(b)}")
    ia, da, pa = _scaled_integers(a)
    ib, db, pb = _scaled_integers(b)
    den = da * db
    prod = _int_matmul(ia, pa, ib, pb)
    if den == 1:
        return [[Fraction(v) for v in row] for row in prod]
    return [[Fraction(v, den) for v in row] for row in prod]


def msub(a, b):
    r, c = shape(a)
    return [[a[i][j] - b[i][j] for j in range(c)] for i in range(r)]


def meq(a, b):
    return shape(a) == shape(b) and all(
        a[i][j] == b[i][j] for i in range(len(a)) for j in range(len(a[0]))
    )


def is_zero(a):
    return all(x == 0 for row in a for x in row)


def to_float(a):
    """Float copy of an exact matrix; FloatRangeError if an entry leaves the double range."""
    try:
        rows = [[float(x) for x in row] for row in a]
    except OverflowError:
        raise FloatRangeError("exact matrix entry is too large for a float") from None
    for row, frow in zip(a, rows):
        if 0.0 in frow and any(x for x, f in zip(row, frow) if not f):
            raise FloatRangeError("nonzero exact matrix entry is too small for a float")
    return np.array(rows, dtype=float)


def exp_float(log_x, what):
    """exp(log_x); FloatRangeError unless that is a normal double."""
    if not math.log(sys.float_info.min) <= log_x <= math.log(sys.float_info.max):
        raise FloatRangeError(f"{what} is about e**{log_x:.6g}, outside the float range")
    return math.exp(log_x)


def det(a):
    """Determinant by fraction-exact Gaussian elimination."""
    n, m = shape(a)
    if n != m:
        raise ValueError("det of non-square matrix")
    if n == 0:
        return Fraction(1)
    a = [row[:] for row in a]
    d = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            d = -d
        d *= a[col][col]
        inv = Fraction(1) / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] == 0:
                continue
            f = a[r][col] * inv
            for c in range(col, n):
                a[r][c] -= f * a[col][c]
    return d


def inverse(a):
    n, m = shape(a)
    if n != m:
        raise ValueError("inverse of non-square matrix")
    aug = [row[:] + ident_row for row, ident_row in zip(a, identity(n))]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _echelon(a):
    """Row echelon form; returns (echelon rows, pivot column list)."""
    r, c = shape(a)
    a = [row[:] for row in a]
    pivots = []
    row = 0
    for col in range(c):
        piv = next((i for i in range(row, r) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = Fraction(1) / a[row][col]
        a[row] = [x * inv for x in a[row]]
        for i in range(r):
            if i != row and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[row])]
        pivots.append(col)
        row += 1
        if row == r:
            break
    return a[:row], pivots


def det_prime_psd(a):
    """Product of nonzero eigenvalues of a symmetric PSD rational matrix.

    With R the reduced echelon rows of a and C its pivot columns, a = C R and
    the nonzero eigenvalues of a are those of R C, so det'(a) = det(R C).
    Zero matrix (empty product) gives 1.
    """
    n, m = shape(a)
    if n != m:
        raise ValueError("det_prime of non-square matrix")
    rows, piv = _echelon(a)
    if not piv:
        return Fraction(1)
    return det(matmul(rows, [[row[j] for j in piv] for row in a]))


def vol_sq(m):
    """Squared product of nonzero singular values of a rational matrix.

    Row reduction keeps every column relation, so m = C R exactly, with C the
    pivot columns of m and R its reduced echelon rows; m^T m = R^T (C^T C) R
    has the nonzero spectrum of (C^T C)(R R^T), so vol(m)^2 = det(C^T C)
    det(R R^T).  An empty or zero matrix gives 1.
    """
    m = fmat(m)
    rows, piv = _echelon(m)
    if not piv:
        return Fraction(1)
    cols = [[row[j] for j in piv] for row in m]
    return det(matmul(transpose(cols), cols)) * det(matmul(rows, transpose(rows)))


def product_is_zero(a, b):
    """Exact test a @ b == 0 for Fraction matrices, via scaled integers.

    Equivalent to is_zero(matmul(a, b)) but builds no Fractions.
    """
    ia, _, pa = _scaled_integers(a)
    ib, _, pb = _scaled_integers(b)
    return not any(map(any, _int_matmul(ia, pa, ib, pb)))


# ---------------------------------------------------------------------------
# integer matrices: Smith normal form


def smith_normal_form(a):
    """Smith normal form over the integers.

    Returns (U, D, V, U^-1, V^-1) with U a V = D, U and V unimodular, D
    diagonal with d_i | d_{i+1} and nonnegative.  Each row operation on U is
    mirrored as the inverse column operation on U^-1, and each column
    operation on V as the inverse row operation on V^-1.  Deterministic pivot
    choice (smallest absolute value, lowest index first).
    """
    a = [[int(x) for x in row] for row in a]
    r = len(a)
    c = len(a[0]) if r else 0
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    v = [[int(i == j) for j in range(c)] for i in range(c)]
    uinv, vinv = [row[:] for row in u], [row[:] for row in v]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for row in uinv:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        for row in a + v:
            row[i], row[j] = row[j], row[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def add_row(dst, src, q):  # row_dst += q * row_src
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]
        for row in uinv:
            row[src] -= q * row[dst]

    def add_col(dst, src, q):  # col_dst += q * col_src
        for row in a + v:
            row[dst] += q * row[src]
        vinv[src] = [x - q * y for x, y in zip(vinv[src], vinv[dst])]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for row in uinv:
            row[i] = -row[i]

    t = 0
    while True:
        # locate pivot: smallest nonzero |entry| in the remaining block; no
        # later entry beats a unit, so the scan stops at the first one
        best = None
        for i, j in itertools.product(range(t, r), range(t, c)):
            if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                best = (i, j)
                if abs(a[i][j]) == 1:
                    break
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        # clear row and column t
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, r):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, c):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
        # divisibility: a[t][t] must divide the rest of the block (a unit does)
        piv = a[t][t]
        if abs(piv) != 1:
            bad = next((i for i in range(t + 1, r) if any(x % piv for x in a[i][t + 1 :])), None)
            if bad is not None:
                add_row(t, bad, 1)
                continue
        if piv < 0:
            negate_row(t)
        t += 1
    return u, a, v, uinv, vinv


# ---------------------------------------------------------------------------
# float Gaussian elimination (eigensolver-free routes)


def echelon_float(m, rtol=1e-10, scale=None):
    """(reduced echelon rows, pivot columns) via partial-pivoted elimination.

    Independent of LAPACK eigen/SVD drivers on purpose: this backs the
    determinant-route torsion oracle.  `scale` anchors the rank tolerance
    when the matrix may be a numerically-zero residue of a larger problem.
    """
    m = np.asarray(m, dtype=float)
    r, c = m.shape
    none = (np.zeros((0, c)), [])
    if r == 0 or c == 0:
        return none
    a = m.copy()
    own = np.max(np.abs(a))
    scale = max(own, scale or 0.0)
    if scale == 0.0:
        return none
    tol = rtol * scale
    if own <= tol:
        return none
    pivots = []
    row = 0
    for col in range(c):
        if row >= r:
            break
        i = row + int(np.argmax(np.abs(a[row:, col])))
        if abs(a[i, col]) <= tol:
            continue
        a[[row, i]] = a[[i, row]]
        a[row] = a[row] / a[row, col]
        mask = np.arange(r) != row
        a[mask] -= np.outer(a[mask, col], a[row])
        pivots.append(col)
        row += 1
    return a[:row], pivots


def vol_float(m, rtol=1e-10, scale=None):
    """Product of nonzero singular values from m = C R as in ``vol_sq``, by LU log-dets."""
    m = np.asarray(m, dtype=float)
    rows, piv = echelon_float(m, rtol, scale)
    if not piv:
        return 1.0
    cols = m[:, piv]
    log_val = np.linalg.slogdet(cols.T @ cols)[1] + np.linalg.slogdet(rows @ rows.T)[1]
    return exp_float(0.5 * float(log_val), "volume")
