import math

import numpy as np
import pytest
from fractions import Fraction

from torsionlab import linalg_exact as lx
from torsionlab.errors import FloatRangeError


def random_int_matrix(rng, r, c, lo=-5, hi=5):
    return [[int(rng.integers(lo, hi + 1)) for _ in range(c)] for _ in range(r)]


def det(m):
    """Exact determinant of int or Fraction rows, through the scaled form."""
    return lx.scaled_det(lx.scaled(m))


def eye(n):
    return np.eye(n, dtype=int).tolist()


def transpose(m):
    return [list(col) for col in zip(*m)]


def test_det_and_inverse_roundtrip():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = lx.fmat(random_int_matrix(rng, n, n))
        d = det(m)
        if d == 0:
            with pytest.raises(lx.SingularMatrixError):
                lx.inverse(m)
            continue
        inv = lx.inverse(m)
        assert lx.matmul(m, inv) == eye(n)
        assert det(inv) == 1 / d


def test_rank_factorization():
    # m = C R with C the pivot columns of m and R its reduced echelon rows
    rng = np.random.default_rng(2)
    cases = [lx.fmat([[0, 0, 0], [0, 0, 0]]), lx.fmat(eye(3)), lx.fmat([[1, 2], [3, 4], [5, 6]])]
    for _ in range(20):
        r, c = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        cases.append(lx.fmat(random_int_matrix(rng, r, c)))
    ranks = set()
    for m in cases:
        rows, piv = lx._echelon(m)
        r, c = lx.shape(m)
        ranks.add((len(piv), min(r, c)))
        assert [[row[j] for j in piv] for row in rows] == eye(len(piv))
        if not piv:
            assert not any(x for row in m for x in row)
            continue
        cols = [[row[j] for j in piv] for row in m]
        assert lx.matmul(cols, rows) == m
    assert (0, 2) in ranks and (3, 3) in ranks and (2, 2) in ranks


def test_det_prime_psd_matches_eigenvalues():
    rng = np.random.default_rng(3)
    for _ in range(15):
        r, c = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        m = lx.fmat(random_int_matrix(rng, r, c, -3, 3))
        g = lx.matmul(transpose(m), m)  # PSD
        exact = lx.det_prime_psd(g)
        w = np.linalg.eigvalsh(lx.to_float(g))
        nz = w[w > 1e-9 * max(w.max(), 1.0)]
        approx = float(np.prod(nz)) if len(nz) else 1.0
        assert abs(float(exact) - approx) <= 1e-8 * max(approx, 1.0)


def test_det_prime_zero_matrix_is_one():
    assert lx.det_prime_psd(lx.fmat([[0, 0, 0]] * 3)) == 1


def test_vol_sq_matches_singular_values():
    rng = np.random.default_rng(4)
    for _ in range(15):
        r, c = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        ints = random_int_matrix(rng, r, c, -3, 3)
        m = lx.fmat(ints)
        pivots, _ = lx._markowitz({i: {j: v for j, v in enumerate(row) if v} for i, row in enumerate(ints)})
        s = np.linalg.svd(lx.to_float(m), compute_uv=False)
        nz = s[s > 1e-9 * max(s.max(initial=0.0), 1.0)]
        assert len(pivots) == len(nz)
        approx = float(np.prod(nz * nz)) if len(nz) else 1.0
        assert abs(lx.vol_float(lx.to_float(m)) - np.sqrt(approx)) <= 1e-8 * max(approx, 1.0)


def test_smith_normal_form_properties():
    rng = np.random.default_rng(5)
    for _ in range(25):
        r, c = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = random_int_matrix(rng, r, c)
        u, d, v, uinv, vinv = lx.smith_normal_form(a)
        uav = lx.matmul(lx.matmul(lx.fmat(u), lx.fmat(a)), lx.fmat(v))
        assert uav == d
        assert abs(det(u)) == 1
        assert abs(det(v)) == 1
        assert lx.matmul(u, uinv) == eye(r)
        assert lx.matmul(v, vinv) == eye(c)
        diag = [d[i][i] for i in range(min(r, c))]
        for i in range(len(diag) - 1):
            if diag[i + 1] != 0:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        for i in range(r):
            for j in range(c):
                if i != j:
                    assert d[i][j] == 0


def test_smith_normal_form_known():
    # diag(2) boundary of the projective-plane 2-cell
    u, d, v, uinv, vinv = lx.smith_normal_form([[2]])
    assert d == [[2]]
    # torus-like zero map
    u, d, v, uinv, vinv = lx.smith_normal_form([[0, 0]])
    assert d == [[0, 0]]


def test_frac_rejects_floats():
    with pytest.raises(TypeError):
        lx.frac(0.5)
    assert lx.frac("3/7") == Fraction(3, 7)


def test_echelon_float_scale_guard():
    noise = np.full((3, 3), 1e-16)
    rows, piv = lx.echelon_float(noise, scale=1.0)
    assert piv == [] and rows.shape == (0, 3)
    assert lx.vol_float(noise, scale=1.0) == 1.0


def all_rows_echelon_float(m, rtol=1e-10, scale=None):
    """echelon_float with the rank-1 update applied to every other row, as a reference."""
    a = np.array(m, dtype=float)
    r, c = a.shape
    own = np.max(np.abs(a), initial=0.0)
    scale = max(own, scale or 0.0)
    if r == 0 or c == 0 or scale == 0.0 or own <= rtol * scale:
        return np.zeros((0, c)), []
    pivots, row = [], 0
    for col in range(c):
        if row >= r:
            break
        i = row + int(np.argmax(np.abs(a[row:, col])))
        if abs(a[i, col]) <= rtol * scale:
            continue
        a[[row, i]] = a[[i, row]]
        a[row] = a[row] / a[row, col]
        mask = np.arange(r) != row
        a[mask] -= np.outer(a[mask, col], a[row])
        pivots.append(col)
        row += 1
    return a[:row], pivots


def test_echelon_float_updates_only_rows_in_the_pivot_column():
    rng = np.random.default_rng(17)
    for _ in range(40):
        r, c = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        m = rng.standard_normal((r, c)) * (rng.random((r, c)) < rng.uniform(0.1, 0.9))
        if rng.random() < 0.3:  # a repeated row makes the matrix rank deficient
            m[-1] = m[0]
        rows, piv = lx.echelon_float(m)
        want_rows, want_piv = all_rows_echelon_float(m)
        assert piv == want_piv and np.array_equal(rows, want_rows)


def test_markowitz_kernel_and_pivot_block_at_every_rank():
    # the pivot rows kept by the eliminator give the kernel by back-substitution
    rng = np.random.default_rng(23)
    ranks = set()
    for _ in range(60):
        r, c = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        k = int(rng.integers(1, min(r, c) + 1))
        ints = rng.integers(-3, 4, (r, k)) @ rng.integers(-3, 4, (k, c))
        ints *= rng.random((r, c)) < 0.7  # sparsity may lower the rank further
        m = ints.tolist()
        pivots, det_a = lx._markowitz({i: {j: v for j, v in enumerate(row) if v} for i, row in enumerate(m)})
        prows, pcols = [i for i, _, _ in pivots], [j for _, j, _ in pivots]
        rank = len(pivots)
        assert rank == len(lx._echelon(lx.fmat(m))[1])
        if rank:
            block = lx.scaled(lx.fmat([[m[i][j] for j in pcols] for i in prows]))
            assert type(det_a) is Fraction and abs(det_a) == abs(lx.scaled_det(block)) != 0
        free = [j for j in range(c) if j not in pcols]
        kernel = lx._kernel(pivots, free)
        assert len(kernel) == c - rank
        for f, (x, s) in zip(free, kernel):
            assert x[f] == s != 0 and all(x.get(g, 0) == 0 for g in free if g != f)
            assert all(type(v) is int for v in x.values())
            assert all(sum(row[j] * x.get(j, 0) for j in range(c)) == 0 for row in m)
        ranks.add((rank, r, c))
    assert any(k < min(r, c) for k, r, c in ranks) and any(0 < k == r < c for k, r, c in ranks)
    assert any(0 < k == c < r for k, r, c in ranks)


def test_markowitz_of_zero_or_empty_has_no_pivots():
    assert lx._markowitz({}) == ([], 1)
    assert lx._markowitz({0: {}, 1: {}}) == ([], 1)
    assert lx._kernel([], [0, 2]) == [({0: 1}, 1), ({2: 1}, 1)]


def test_vol_float_log_domain():
    # det(M^T M) = 1e400 overflows; the volume 1e200 does not
    assert abs(lx.vol_float(1e50 * np.eye(4)) / 1e200 - 1.0) <= 1e-12
    with pytest.raises(FloatRangeError):
        lx.vol_float(1e100 * np.eye(4))
    with pytest.raises(FloatRangeError):
        lx.vol_float(1e-100 * np.eye(4), scale=1e-100)
    assert abs(lx.log_vol_float(1e100 * np.eye(4)) / (400 * math.log(10)) - 1.0) <= 1e-12
    assert lx.log_vol_float(np.zeros((2, 3))) == 0.0


def test_singular_float_is_scale_free_and_overflow_free():
    assert not lx.singular_float(1e-5 * np.eye(3))
    assert not lx.singular_float(1e60 * np.eye(8))  # det is 1e480, past the double range
    assert not lx.singular_float(np.array([[1e200]]))
    assert lx.singular_float(np.array([[1.0, 2.0], [2.0, 4.0]]))
    assert lx.singular_float(np.array([[1e-5, 2e-5], [2e-5, 4e-5]]))
    assert lx.singular_float(np.array([[0.0, 0.0], [0.0, 1.0]]))


def reference_matmul(a, b):
    """Plain triple-loop Fraction product, the definition matmul must meet."""
    inner = len(b)
    cols = len(b[0]) if b else 0
    return [
        [sum((row[k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(cols)]
        for row in a
    ]


def random_fraction_matrix(rng, r, c, num_bits, max_den):
    lim = 2**num_bits
    return [
        [Fraction(int(rng.integers(-lim, lim)), int(rng.integers(1, max_den + 1))) for _ in range(c)]
        for _ in range(r)
    ]


def assert_all_fractions(m):
    assert all(type(x) is Fraction for row in m for x in row)
    assert all(type(x.numerator) is int and type(x.denominator) is int for row in m for x in row)


class TestMatmul:
    @pytest.mark.parametrize("num_bits,max_den", [(3, 1), (10, 1), (6, 12), (40, 7)])
    def test_matches_reference(self, num_bits, max_den):
        rng = np.random.default_rng(num_bits * 100 + max_den)
        for _ in range(25):
            r, n, c = (int(x) for x in rng.integers(1, 7, size=3))
            a = random_fraction_matrix(rng, r, n, num_bits, max_den)
            b = random_fraction_matrix(rng, n, c, num_bits, max_den)
            got = lx.matmul(a, b)
            assert got == reference_matmul(a, b)
            assert_all_fractions(got)

    def test_entries_past_int64_bound(self):
        # entries past 2**63 cannot enter int64 at all: Python-int product
        rng = np.random.default_rng(7)
        big = 2**70
        a = [[Fraction(big + int(rng.integers(-9, 10)), 3), Fraction(-big, 5)] for _ in range(3)]
        b = [[Fraction(int(rng.integers(-9, 10)), 7) + big for _ in range(4)] for _ in range(2)]
        got = lx.matmul(a, b)
        assert got == reference_matmul(a, b)
        assert_all_fractions(got)
        # peak_a * peak_b * inner = 2**61 stays in int64, 2**63 leaves it
        half = [[Fraction(2**30), Fraction(2**30)]]
        assert lx.matmul(half, transpose(half)) == [[Fraction(2**61)]]
        a = [[Fraction(2**31), Fraction(2**31)]]
        assert lx.matmul(a, transpose(a)) == [[Fraction(2**63)]]

    def test_int_entries_give_fractions(self):
        got = lx.matmul([[1, 2], [3, 4]], [[5], [6]])
        assert got == [[17], [39]]
        assert_all_fractions(got)

    def test_empty_shapes(self):
        assert lx.matmul([], []) == []
        assert lx.matmul([[], []], []) == [[], []]
        assert lx.matmul(lx.fmat([[1, 2]]), [[], []]) == [[]]
        got = lx.matmul([[0, 0, 0]] * 2, [[0, 0]] * 3)
        assert got == [[0, 0], [0, 0]]
        assert_all_fractions(got)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            lx.matmul(eye(2), eye(3))
        with pytest.raises(ValueError):
            lx.matmul([], eye(1))

    def test_pivots_stay_exact(self):
        # det/inverse divide by product entries; an int pivot would turn 1/x into a float
        m = lx.matmul(lx.fmat([[2, 1], [1, 1]]), lx.fmat([[1, 1], [0, 3]]))
        inv = lx.inverse(m)
        assert_all_fractions(inv)
        assert lx.matmul(m, inv) == eye(2)
        assert type(det(m)) is Fraction


def test_int_entries_stay_exact():
    # a pivot reciprocal 1 / x of an int x is a float; every helper must stay in Fractions
    d, inv, dp = det([[2, 1], [1, 1]]), lx.inverse([[3]]), lx.det_prime_psd([[1, 1], [1, 1]])
    assert d == 1 and type(d) is Fraction
    assert inv == [[Fraction(1, 3)]] and type(inv[0][0]) is Fraction
    assert dp == 2 and type(dp) is Fraction
    assert_all_fractions(lx._echelon([[2, 4], [1, 3]])[0])


def test_product_is_zero_matches_matmul():
    rng = np.random.default_rng(11)
    for num_bits in (3, 45):
        for _ in range(20):
            a = random_fraction_matrix(rng, 2, 3, num_bits, 4)
            (p, q, r), (x, y, z) = a
            k = [[q * z - r * y], [r * x - p * z], [p * y - q * x]]  # a's cross product
            assert lx.product_is_zero(a, k)
            assert not any(x for row in lx.matmul(a, k) for x in row)
            b = random_fraction_matrix(rng, 3, 2, num_bits, 4)
            assert lx.product_is_zero(a, b) == (not any(x for row in lx.matmul(a, b) for x in row))
    assert lx.product_is_zero([], [])
    assert lx.product_is_zero([[], []], [])


def test_to_float_out_of_range_is_typed():
    from torsionlab.errors import FloatRangeError, TorsionLabError

    with pytest.raises(FloatRangeError) as info:
        lx.to_float([[Fraction(10**400)]])
    assert isinstance(info.value, TorsionLabError)


def test_to_float_underflow_is_typed():
    from torsionlab.errors import FloatRangeError

    with pytest.raises(FloatRangeError):
        lx.to_float([[Fraction(0), Fraction(1, 10**400)]])
    assert np.array_equal(lx.to_float([[Fraction(0), Fraction(1, 10**300)]]), [[0.0, 1e-300]])


def test_scaled_inverse_past_int64_range():
    # Bareiss inverse of m / 7, past the int64 range too: m . inv == 7 den I
    rng = np.random.default_rng(5)
    for bits in (3, 70):
        for n in range(1, 6):
            m = [[int(rng.integers(-9, 10)) * 2**bits + int(rng.integers(-3, 4)) for _ in range(n)]
                 for _ in range(n)]
            if det(m) == 0:
                continue
            inv, den = lx.scaled_inverse((np.array(m, dtype=object), 7))
            want = [[7 * den * (i == j) for j in range(n)] for i in range(n)]
            assert lx.matmul(m, inv.tolist()) == want


def test_scaled_matmul_stacks_past_int64_bound():
    a = np.array([[[2**40, 1], [1, 1]], [[3, 1], [2, 1]]], dtype=np.int64)
    got, den = lx.scaled_matmul((a, 6), (a, 4))
    assert got.dtype == object and den == 24
    for i in range(2):
        want = lx.matmul(a[i].tolist(), a[i].tolist())
        assert [[Fraction(x, den) for x in row] for row in got[i].tolist()] == [
            [x / 24 for x in row] for row in want
        ]
    got, den = lx.scaled_matmul((2 * np.eye(2, dtype=np.int64), 4), (np.eye(2, dtype=np.int64), 1))
    assert got.dtype == np.int64 and den == 2 and got.tolist() == [[1, 0], [0, 1]]


@pytest.mark.parametrize("den", [1, 3, 2**53, 2**53 + 1, 10**30])
def test_scaled_to_float_rounds_as_fraction(den):
    rng = np.random.default_rng(den % 1000)
    nums = [int(rng.integers(-(2**62), 2**62)) >> int(rng.integers(0, 62)) for _ in range(40)]
    nums += [2**53, 2**53 + 1, -(2**60) - 1, 0]
    for ints in (np.array(nums, dtype=np.int64), np.array(nums, dtype=object)):
        got = lx.scaled_to_float(ints, den)
        assert got.tolist() == [float(Fraction(n, den)) for n in nums]


def test_scaled_to_float_range_errors():
    with pytest.raises(FloatRangeError):
        lx.scaled_to_float(np.array([10**400], dtype=object), 1)
    with pytest.raises(FloatRangeError):
        lx.scaled_to_float(np.array([0, 1], dtype=np.int64), 10**400)
    assert lx.scaled_to_float(np.array([10**400], dtype=object), 10**399).tolist() == [10.0]
