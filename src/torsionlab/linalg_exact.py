"""Exact rational and integer linear algebra.

Exact matrices live in the scaled-integer form (FLINT's ``fmpq_mat``
layout): an integer ndarray of numerators, possibly a stack of matrices, over
one positive int denominator.  Float matrices ride the same ``scaled_*``
calls as (float array, 1); each call picks its kernel by numerator dtype.
Lists of ``fractions.Fraction`` rows exist only at the edges: serialization
and views (``frac``, ``fmat``, ``scaled``, ``unscaled``, ``to_float``).  List
arithmetic remains only where the benchmark's tracer binds it (``matmul``,
``inverse``, ``det_prime_psd``, ``product_is_zero``); it converts through
``scaled`` and ``unscaled``.  Nothing here touches floats
except the float kernels and the checked conversions; the Smith normal form
works over Python ints, so there is no overflow anywhere.

Every exact product goes through one kernel, ``_int_matmul``: numpy int64
when a magnitude bound proves no partial sum can overflow, Python ints in
object arrays otherwise.  Sparse matrices, {row: {column: int}} maps, have
one eliminator, ``_markowitz``: it gives pivot rows and columns and +-det of
the pivot block, and keeps the pivot rows, from which ``_kernel`` reads
kernel vectors by back-substitution.  The exact torsion is built from these
(``torsion_engine.t_comb_squared_exact``).
"""

from __future__ import annotations

import heapq
import itertools
import math
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


def fmat(rows):
    return [[frac(x) for x in row] for row in rows]


def shape(a):
    return (len(a), len(a[0]) if a else 0)


def _int_array(rows):
    """Integer ndarray of int rows: int64 if every entry fits, else Python ints."""
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


def _peak(ints):
    """Largest absolute entry of an integer ndarray, as a Python int (0 if empty)."""
    if ints.size <= 64:  # a small matrix: one list beats numpy's reduction set-up
        return max(map(abs, ints.ravel().tolist()), default=0)
    return max(int(ints.max(initial=0)), -int(ints.min(initial=0)))


def scaled(m):
    """(ints, den) form of a Fraction or int matrix; den is the lcm of the denominators."""
    den = math.lcm(*{x.denominator for row in m for x in row})
    if den == 1:
        ints = [[x.numerator for x in row] for row in m]
    else:
        ints = [[x.numerator * (den // x.denominator) for x in row] for row in m]
    return _int_array(ints), den


def unscaled(a):
    """Fraction rows of a scaled matrix (nums, den); a float one is its own array."""
    nums, den = a
    if nums.dtype.kind == "f":
        return nums
    if den == 1:
        return [[Fraction(v) for v in row] for row in nums.tolist()]
    return [[Fraction(v, den) for v in row] for row in nums.tolist()]


def _int_matmul(ia, pa, ib, pb):
    """Exact product of integer ndarrays (or stacks) whose entries are bounded by pa, pb.

    numpy int64 is used when pa * pb * inner < 2**62, so no partial sum can
    overflow; otherwise the product is taken in Python ints.
    """
    dtype = np.int64 if pa * pb * ib.shape[-2] < 2**62 else object
    return np.matmul(ia.astype(dtype, copy=False), ib.astype(dtype, copy=False))


def _reduced(ints, den):
    """(ints, den) divided through by the gcd of den and every entry."""
    if den == 1:
        return ints, den
    g = int(np.gcd.reduce(ints, axis=None, initial=0))
    if g == 0:
        return ints, 1
    g = math.gcd(den, g)
    return (ints // g, den // g) if g > 1 else (ints, den)


def scaled_matmul(a, b):
    """Product of scaled matrices, or of stacks of them, reduced by the gcd.

    Each operand is (nums, den).  Integer numerators multiply exactly through
    ``_int_matmul``; float numerators (den 1) multiply by BLAS, as ``@`` would.
    """
    (na, da), (nb, db) = a, b
    if na.dtype.kind == "f":
        return np.matmul(na, nb), 1
    return _reduced(_int_matmul(na, _peak(na), nb, _peak(nb)), da * db)


def scaled_concat(stacks):
    """One stack over a common denominator from scaled stacks (nums[n_i, ...], den_i), in order."""
    if len(stacks) == 1:
        return stacks[0]
    den = math.lcm(*(d for _, d in stacks))
    big = any(m.dtype == object or _peak(m) * (den // d) >= 2**63 for m, d in stacks if d != den)
    nums = [m if d == den else (m.astype(object) if big else m) * (den // d) for m, d in stacks]
    nums = np.concatenate(nums)
    return (nums.astype(np.int64) if nums.dtype == object and _peak(nums) < 2**63 else nums), den


def scaled_sum(keys, coeffs, a):
    """(distinct keys ascending, (sums, den)): coeffs[i] * a[i] summed per keys[i], in stack order.

    ``a`` is a scaled stack; integer sums leave int64 for Python ints when
    sum |coeffs| times the peak entry could overflow.
    """
    nums, den = a
    if nums.dtype == np.int64 and _peak(nums) * int(np.abs(coeffs).sum()) >= 2**63:
        nums = nums.astype(object)
    order = keys.argsort(kind="stable")
    keys = keys[order]
    first = np.diff(keys, prepend=keys[:1] - 1) != 0  # where each distinct key starts
    slots = np.empty(len(keys), dtype=np.intp)
    slots[order] = first.cumsum() - 1
    terms = coeffs[:, None, None] * nums
    out = np.zeros((int(first.sum()),) + nums.shape[1:], dtype=terms.dtype)
    np.add.at(out, slots, terms)  # unbuffered, in stack order: each float sum folds from 0.0
    return keys[first], _reduced(out, den)


def scaled_to_float(ints, den):
    """ints / den as floats, each entry correctly rounded as float(Fraction) is.

    FloatRangeError if an entry leaves the double range or a nonzero one
    rounds to 0.0.  Float numerators (den 1) are their own array, as in
    ``unscaled``.
    """
    if ints.dtype.kind == "f":
        return ints
    if ints.dtype != object and den <= 2**53 and _peak(ints) <= 2**53:
        out = ints / den  # both sides exact in doubles, so one correctly rounded division
    else:
        try:
            out = np.array([v / den for v in ints.ravel().tolist()], dtype=float)
        except OverflowError:
            raise FloatRangeError("exact matrix entry is too large for a float") from None
        out = out.reshape(ints.shape)
    if np.any((out == 0.0) & (ints != 0)):
        raise FloatRangeError("nonzero exact matrix entry is too small for a float")
    return out


def matmul(a, b):
    """Exact product of rational matrices; every entry is a Fraction."""
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ValueError(f"shape mismatch {shape(a)} @ {shape(b)}")
    (ia, da), (ib, db) = scaled(a), scaled(b)
    pa, pb = _peak(ia), _peak(ib)
    if not (pa and pb):
        return [[Fraction(0)] * cb for _ in range(ra)]
    return unscaled((_int_matmul(ia, pa, ib, pb), da * db))


def to_float(a):
    """Float copy of an exact matrix; FloatRangeError if an entry leaves the double range."""
    return scaled_to_float(*scaled(fmat(a)))


def exp_float(log_x, what):
    """exp(log_x); FloatRangeError unless that is a normal double."""
    if not math.log(sys.float_info.min) <= log_x <= math.log(sys.float_info.max):
        raise FloatRangeError(f"{what} is about e**{log_x:.6g}, outside the float range")
    return math.exp(log_x)


def singular_float(m):
    """Whether |det m| <= 1e-14 prod_i |row_i| for a square float matrix, or
    for each matrix of a stack (one bool per matrix).

    The bound is Hadamard's, so the test is scale-free.  It is taken on the
    rows divided by their largest entry, so no entry size overflows it; a
    zero row makes both sides exactly 0.
    """
    big = np.abs(m).max(axis=-1, keepdims=True)
    m = m / np.where(big == 0, 1.0, big)
    return np.abs(np.linalg.det(m)) <= 1e-14 * np.prod(np.linalg.norm(m, axis=-1), axis=-1)


def _bareiss(m, n, jordan=False):
    """Fraction-free elimination of int rows m on their first n columns, in place.

    E. Bareiss, Math. Comp. 1968: every intermediate entry is a minor of the
    input, so each division by the previous pivot is exact.  Returns (sign,
    pivot): the determinant of the leading n x n block is sign * pivot, 0 if
    it is singular.  With ``jordan`` rows above each pivot are cleared too,
    which leaves pivot * block^-1 in any columns past the first n.
    """
    sign, prev = 1, 1
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return sign, 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        # without jordan, columns up to c of the rows below are never read again
        lo = 0 if jordan else c + 1
        p, top = m[c][c], m[c][lo:]
        for r in range(n) if jordan else range(c + 1, n):
            if r != c:
                row, f = m[r], m[r][c]
                row[lo:] = [(p * x - f * y) // prev for x, y in zip(row[lo:], top)]
        prev = p
    return sign, prev


def scaled_det(a):
    """Determinant of a square scaled matrix: a Fraction if exact, a float if float."""
    nums, den = a
    if nums.dtype.kind == "f":
        return float(np.linalg.det(nums))
    n = len(nums)
    sign, pivot = _bareiss(nums.tolist(), n)
    return Fraction(sign * pivot, den**n)


def scaled_inverse(a):
    """Inverse of a square scaled matrix (nums, den), as (nums, den) with den > 0.

    Float numerators (den 1) go to LAPACK.  For integers, inv(ints / den) =
    den * inv(ints), and Jordan elimination of [ints | I] leaves pivot *
    inv(ints) in the right half.
    """
    ints, den = a
    if ints.dtype.kind == "f":
        return np.linalg.inv(ints), 1
    n = len(ints)
    m = [row + [int(i == j) for j in range(n)] for i, row in enumerate(ints.tolist())]
    _, pivot = _bareiss(m, n, jordan=True)
    if not pivot:
        raise SingularMatrixError("matrix is singular")
    scale = den if pivot > 0 else -den
    adj = [[x * scale for x in row[n:]] for row in m]
    return _reduced(_int_array(adj), abs(pivot))


def inverse(a):
    n, c = shape(a)
    if n != c:
        raise ValueError("inverse of non-square matrix")
    return unscaled(scaled_inverse(scaled(fmat(a))))


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
    return scaled_det(scaled(matmul(rows, [[row[j] for j in piv] for row in a])))


def _markowitz(rows):
    """Sparse Gaussian elimination of {row: {column: nonzero int}} maps, consuming them.

    Each step takes the column with the fewest nonzeros, then the shortest
    row through it, then a +-1 entry (H. Markowitz, Management Sci. 1957), and
    clears that column from the other rows, so only nonzeros are touched.
    Rows stay integral: where the pivot does not divide the entry it clears,
    the row is scaled up first and divided by its content after, and the
    scale is kept.  Returns (pivots, +-det m[P, Q] as a Fraction) for P, Q the
    pivot rows and columns; each pivot (i, j, map) keeps the map row i held
    when chosen, so the maps are a triangular system for ``_kernel``.
    """
    cols = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    heap = [(len(live), j) for j, live in cols.items()]
    heapq.heapify(heap)
    scale = {}  # row -> s where the stored row is s times the eliminated one
    pivots, product, divisor = [], 1, 1
    while heap:
        n, j = heapq.heappop(heap)
        live = cols.get(j)
        if live is None or len(live) != n:
            continue  # a stale count; the current one is further down the heap
        del cols[j]
        if not n:
            continue
        i = min(live, key=lambda i: (len(rows[i]), abs(rows[i][j]) != 1, i))
        live.discard(i)
        top = rows.pop(i)
        p = top.pop(j)
        for c in top:
            cols[c].discard(i)
        for t in live:
            row = rows[t]
            f = row.pop(j)
            q, rem = divmod(f, p)
            if rem:  # row := (p/g) row - (f/g) top
                g = math.gcd(f, p)
                a, q = p // g, f // g
                for c in row:
                    row[c] *= a
                scale[t] = scale.get(t, 1) * a
            for c, v in top.items():
                x = row.get(c, 0) - q * v
                if x:
                    if c not in row:
                        cols[c].add(t)
                    row[c] = x
                elif c in row:
                    del row[c]
                    cols[c].discard(t)
            if rem and (g := math.gcd(*row.values())) > 1:
                for c in row:
                    row[c] //= g
                scale[t] = Fraction(scale[t], g)
        for c in top:
            heapq.heappush(heap, (len(cols[c]), c))
        top[j] = p
        pivots.append((i, j, top))
        product *= p
        if i in scale:
            divisor *= scale.pop(i)
    return pivots, Fraction(product) / divisor if divisor != 1 else Fraction(product)


def _kernel(pivots, free):
    """Right-kernel vectors of a matrix eliminated by ``_markowitz``, by back-substitution.

    One (x, s) per non-pivot column f in ``free``: an integer {column: int}
    map x that is s at f and 0 at the other free columns, each pivot column
    solved from its kept row, last pivot first, scaling x up where a pivot
    does not divide, and divided by its content at the end.
    """
    out = []
    for f in free:
        x = {f: 1}
        for _, j, row in reversed(pivots):
            s = sum(v * x[c] for c, v in row.items() if c in x)
            if s:
                p = row[j]
                g = math.gcd(s, p)
                if (a := p // g) != 1:
                    for c in x:
                        x[c] *= a
                x[j] = -s // g
        g = math.gcd(*x.values())
        if g > 1:
            x = {c: v // g for c, v in x.items()}
        out.append((x, x[f]))
    return out


def product_is_zero(a, b):
    """Exact test a @ b == 0 for Fraction matrices, via scaled integers.

    Builds no Fractions.
    """
    (ia, _), (ib, _) = scaled(a), scaled(b)
    pa, pb = _peak(ia), _peak(ib)
    return not (pa and pb and _int_matmul(ia, pa, ib, pb).any())


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
        # rows with a zero in the pivot column would only take x - 0 * y = x
        hit = np.flatnonzero(a[:, col])
        hit = hit[hit != row]
        a[hit] -= np.outer(a[hit, col], a[row])
        pivots.append(col)
        row += 1
    return a[:row], pivots


def log_vol_float(m, rtol=1e-10, scale=None):
    """log of the product of nonzero singular values, by LU log-dets.

    With C the pivot columns of m and R its reduced echelon rows, m = C R and
    vol(m)^2 = det(C^T C) det(R R^T).
    """
    m = np.asarray(m, dtype=float)
    rows, piv = echelon_float(m, rtol, scale)
    if not piv:
        return 0.0
    cols = m[:, piv]
    log_val = np.linalg.slogdet(cols.T @ cols)[1] + np.linalg.slogdet(rows @ rows.T)[1]
    return 0.5 * float(log_val)


def vol_float(m, rtol=1e-10, scale=None):
    """Product of nonzero singular values; FloatRangeError outside the double range."""
    return exp_float(log_vol_float(m, rtol, scale), "volume")
