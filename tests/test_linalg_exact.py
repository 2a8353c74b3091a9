import numpy as np
import pytest
from fractions import Fraction

from torsionlab import linalg_exact as lx
from torsionlab.errors import FloatRangeError


def random_int_matrix(rng, r, c, lo=-5, hi=5):
    return [[int(rng.integers(lo, hi + 1)) for _ in range(c)] for _ in range(r)]


def test_det_and_inverse_roundtrip():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = lx.fmat(random_int_matrix(rng, n, n))
        d = lx.det(m)
        if d == 0:
            with pytest.raises(lx.SingularMatrixError):
                lx.inverse(m)
            continue
        inv = lx.inverse(m)
        assert lx.meq(lx.matmul(m, inv), lx.identity(n))
        assert lx.det(inv) == 1 / d


def test_rank_factorization():
    # m = C R with C the pivot columns of m and R its reduced echelon rows
    rng = np.random.default_rng(2)
    cases = [lx.zeros(2, 3), lx.identity(3), lx.fmat([[1, 2], [3, 4], [5, 6]])]
    for _ in range(20):
        r, c = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        cases.append(lx.fmat(random_int_matrix(rng, r, c)))
    ranks = set()
    for m in cases:
        rows, piv = lx._echelon(m)
        r, c = lx.shape(m)
        ranks.add((len(piv), min(r, c)))
        assert [[row[j] for j in piv] for row in rows] == lx.identity(len(piv))
        if not piv:
            assert lx.is_zero(m)
            continue
        cols = [[row[j] for j in piv] for row in m]
        assert lx.matmul(cols, rows) == m
    assert (0, 2) in ranks and (3, 3) in ranks and (2, 2) in ranks


def test_det_prime_psd_matches_eigenvalues():
    rng = np.random.default_rng(3)
    for _ in range(15):
        r, c = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        m = lx.fmat(random_int_matrix(rng, r, c, -3, 3))
        g = lx.matmul(lx.transpose(m), m)  # PSD
        exact = lx.det_prime_psd(g)
        w = np.linalg.eigvalsh(lx.to_float(g))
        nz = w[w > 1e-9 * max(w.max(), 1.0)]
        approx = float(np.prod(nz)) if len(nz) else 1.0
        assert abs(float(exact) - approx) <= 1e-8 * max(approx, 1.0)


def test_det_prime_zero_matrix_is_one():
    assert lx.det_prime_psd(lx.zeros(3, 3)) == 1


def test_vol_sq_matches_singular_values():
    rng = np.random.default_rng(4)
    for _ in range(15):
        r, c = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        m = lx.fmat(random_int_matrix(rng, r, c, -3, 3))
        exact = float(lx.vol_sq(m))
        s = np.linalg.svd(lx.to_float(m), compute_uv=False)
        nz = s[s > 1e-9 * max(s.max(initial=0.0), 1.0)]
        approx = float(np.prod(nz * nz)) if len(nz) else 1.0
        assert abs(exact - approx) <= 1e-8 * max(approx, 1.0)
        assert abs(lx.vol_float(lx.to_float(m)) - np.sqrt(approx)) <= 1e-8 * max(approx, 1.0)


def test_smith_normal_form_properties():
    rng = np.random.default_rng(5)
    for _ in range(25):
        r, c = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = random_int_matrix(rng, r, c)
        u, d, v, uinv, vinv = lx.smith_normal_form(a)
        uav = lx.matmul(lx.matmul(lx.fmat(u), lx.fmat(a)), lx.fmat(v))
        assert lx.meq(uav, lx.fmat(d))
        assert abs(lx.det(lx.fmat(u))) == 1
        assert abs(lx.det(lx.fmat(v))) == 1
        assert lx.meq(lx.matmul(lx.fmat(u), lx.fmat(uinv)), lx.identity(r))
        assert lx.meq(lx.matmul(lx.fmat(v), lx.fmat(vinv)), lx.identity(c))
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


def test_vol_float_log_domain():
    # det(M^T M) = 1e400 overflows; the volume 1e200 does not
    assert abs(lx.vol_float(1e50 * np.eye(4)) / 1e200 - 1.0) <= 1e-12
    with pytest.raises(FloatRangeError):
        lx.vol_float(1e100 * np.eye(4))
    with pytest.raises(FloatRangeError):
        lx.vol_float(1e-100 * np.eye(4), scale=1e-100)


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
        assert lx.matmul(half, lx.transpose(half)) == [[Fraction(2**61)]]
        a = [[Fraction(2**31), Fraction(2**31)]]
        assert lx.matmul(a, lx.transpose(a)) == [[Fraction(2**63)]]

    def test_int_entries_give_fractions(self):
        got = lx.matmul([[1, 2], [3, 4]], [[5], [6]])
        assert got == [[17], [39]]
        assert_all_fractions(got)

    def test_empty_shapes(self):
        assert lx.matmul([], []) == []
        assert lx.matmul([[], []], []) == [[], []]
        assert lx.matmul(lx.fmat([[1, 2]]), [[], []]) == [[]]
        assert lx.matmul(lx.zeros(2, 3), lx.zeros(3, 2)) == lx.zeros(2, 2)
        assert_all_fractions(lx.matmul(lx.zeros(2, 3), lx.zeros(3, 2)))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            lx.matmul(lx.identity(2), lx.identity(3))
        with pytest.raises(ValueError):
            lx.matmul([], lx.identity(1))

    def test_pivots_stay_exact(self):
        # det/inverse divide by product entries; an int pivot would turn 1/x into a float
        m = lx.matmul(lx.fmat([[2, 1], [1, 1]]), lx.fmat([[1, 1], [0, 3]]))
        inv = lx.inverse(m)
        assert_all_fractions(inv)
        assert lx.matmul(m, inv) == lx.identity(2)
        assert type(lx.det(m)) is Fraction


def test_int_entries_stay_exact():
    # a pivot reciprocal 1 / x of an int x is a float; every helper must stay in Fractions
    d, inv, dp = lx.det([[2, 1], [1, 1]]), lx.inverse([[3]]), lx.det_prime_psd([[1, 1], [1, 1]])
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
            assert lx.is_zero(lx.matmul(a, k))
            b = random_fraction_matrix(rng, 3, 2, num_bits, 4)
            assert lx.product_is_zero(a, b) == lx.is_zero(lx.matmul(a, b))
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
