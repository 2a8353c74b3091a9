import cmath
import math

import mpmath
import numpy as np
import pytest

from torsionlab import analytic_model
from torsionlab import linalg_exact as lx
from torsionlab.analytic_model import (
    CircleModel,
    analytic_torsion_circle,
    eigenvalue_factor_closed,
    eigenvalue_factor_hurwitz,
    eigenvalue_factor_raw,
    eigenvalue_factor_truncated,
    zeta_det_laplacian,
)
from torsionlab.corpus import corpus_get, random_invertible, rotation_matrix
from torsionlab.errors import FloatRangeError, ZeroModeError
from torsionlab.euler_struct import canonical_spray
from torsionlab.flat_bundle import FlatBundle
from torsionlab.suites import _det_minus_identity
from torsionlab.torsion_engine import assemble, t_comb


class TestZetaDet:
    def test_minus_one_gives_four(self):
        # oracle first: the Hurwitz-zeta derivative route at theta = pi
        hur = eigenvalue_factor_hurwitz(-1.0)
        assert abs(hur - 4.0) <= 1e-10
        res = zeta_det_laplacian(CircleModel([[-1.0]]))
        assert abs(res.value - 4.0) <= 1e-12
        assert abs(res.value - 4.0 * math.sin(math.pi / 2) ** 2) <= 1e-12

    def test_identity_needs_zero_mode_flag(self):
        model = CircleModel([[1.0]])
        with pytest.raises(ZeroModeError):
            zeta_det_laplacian(model)
        res = zeta_det_laplacian(model, allow_zero_modes=True)
        assert res.zero_modes == 1
        assert abs(res.value - 1.0) <= 1e-12  # L^2 with L = 1

    def test_identity_circumference_scales(self):
        res = zeta_det_laplacian(CircleModel([[1.0]], circumference=2.0), allow_zero_modes=True)
        assert abs(res.value - 4.0) <= 1e-12

    def test_rotation_by_two_pi_thirds(self):
        model = CircleModel(rotation_matrix(2 * math.pi / 3))
        res = zeta_det_laplacian(model, truncation=20000)
        per_line = 4 * math.sin(math.pi / 3) ** 2
        assert abs(res.value - per_line**2) <= 1e-9
        assert res.discrepancy <= 1e-9

    def test_hurwitz_oracle_matches_raw_factor(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            nu = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(nu) < 0.2 or abs(nu - 1) < 0.1:
                continue
            raw = eigenvalue_factor_raw(nu)
            hur = eigenvalue_factor_hurwitz(nu)
            assert abs(raw - hur) <= 1e-8 * max(abs(raw), 1.0)

    def test_truncated_route_converges_to_raw(self):
        for nu in (-1.0, 0.5, complex(0.3, 1.1), 2.5):
            raw = eigenvalue_factor_raw(nu)
            tr = eigenvalue_factor_truncated(nu, 100000)
            assert abs(tr - raw) <= 1e-8 * max(abs(raw), 1.0)

    def test_modulus_correction(self):
        # |lambda|-corrected factor equals |1 - nu|^2 for off-unit eigenvalues
        nu = 2.5
        assert abs(
            eigenvalue_factor_closed(nu) - abs(eigenvalue_factor_raw(nu)) * abs(nu)
        ) <= 1e-12


class TestAnalyticTorsion:
    def test_holonomy_three_matches_combinatorial(self):
        model = CircleModel([[3.0]])
        res = analytic_torsion_circle(model)
        cx = corpus_get("circle-1cell").complex
        tc = t_comb(assemble(cx, FlatBundle(1, {"e": [[3]]}), canonical_spray(cx)), "eig")
        assert abs(res.value - tc) <= 1e-6 * tc
        assert abs(res.value - 2.0) <= 1e-9

    def test_orthogonal_no_eigenvalue_one(self):
        h = rotation_matrix(2 * math.pi / 5)
        res = analytic_torsion_circle(CircleModel(h))
        want = abs(np.linalg.det(h - np.eye(2)))
        assert abs(res.value - want) <= 1e-6 * want

    def test_identity_reports_harmonic_dims(self):
        res = analytic_torsion_circle(CircleModel(np.eye(2)))
        assert not res.acyclic
        assert res.harmonic_dims == {0: 2, 1: 2}

    @pytest.mark.parametrize("h, want", [
        ([[2.0, 0.0], [0.0, 3.0]], 0), ([[1.0, 0.0], [0.0, 2.0]], 1),
        ([[1.0, 0.0], [0.0, 1.0]], 2), ([[1.0, 1.0], [0.0, 1.0]], 1),
    ])
    def test_zero_mode_dimension(self, h, want):
        # the Jordan block has eigenvalue 1 twice but one eigenvector
        assert CircleModel(h).zero_mode_dimension() == want

    def test_scale_invariance_acyclic(self):
        vals = [
            analytic_torsion_circle(CircleModel([[2.0]], circumference=c)).value
            for c in (1.0, 2.0, math.pi)
        ]
        assert max(vals) - min(vals) <= 1e-9 * max(vals)

    def test_cheeger_muller_random_rational(self):
        rng = np.random.default_rng(52)
        cx = corpus_get("circle-1cell").complex
        spray = canonical_spray(cx)
        checked = 0
        while checked < 12:
            k = int(rng.choice([1, 2, 3]))
            m = random_invertible(rng, k)
            if _det_minus_identity(m) == 0:
                continue
            an = analytic_torsion_circle(CircleModel(lx.to_float(m))).value
            tc = t_comb(assemble(cx, FlatBundle(k, {"e": m}), spray), "eig")
            assert abs(an - tc) <= 1e-6 * max(an, tc)
            checked += 1

    def test_truncation_error_monotone_without_tail(self):
        model = CircleModel([[3.0]])
        errs = [
            zeta_det_laplacian(model, truncation=n, tail_correction=False).discrepancy
            for n in (1000, 4000, 16000)
        ]
        assert errs[0] > errs[1] > errs[2]


def reference_factor(nu, n_terms, tail_correction=True):
    """The truncated factor by one complex log1p per term over all of 1..N at once."""
    nu = complex(nu)
    w = cmath.phase(nu) - 1j * math.log(abs(nu))
    n = np.arange(1, n_terms + 1, dtype=float)
    z = (w / (2 * math.pi)) ** 2
    s = 2.0 * np.sum(np.log1p(-z / (n * n)))
    tail = 0.0
    if tail_correction:
        t1 = float(mpmath.psi(1, n_terms + 1))
        t3 = float(mpmath.psi(3, n_terms + 1)) / 6.0
        tail = 2.0 * (-z * t1 - (z * z / 2.0) * t3)
    return w * w * complex(cmath.exp(s + tail))


def seeded_nus(count=50):
    """Negative reals and complex nu with |nu| log-uniform over [1e-3, 1e3]."""
    rng = np.random.default_rng(61)
    out = []
    while len(out) < count:
        r = 10 ** rng.uniform(-3, 3)
        nu = -r if len(out) % 5 == 0 else cmath.rect(r, rng.uniform(-math.pi, math.pi))
        if abs(nu - 1) > 1e-3:
            out.append(nu)
    return out


def model_of(nu):
    """Real holonomy with eigenvalue nu (and its conjugate when nu is not real)."""
    nu = complex(nu)
    if nu.imag == 0:
        return CircleModel([[nu.real]])
    return CircleModel([[nu.real, -nu.imag], [nu.imag, nu.real]])


def rel(a, b):
    return abs(a - b) / abs(b)


class TestTruncatedKernel:
    """The real, blocked kernel against the complex-log1p product it replaced."""

    block = analytic_model._BLOCK

    # the edges of one block and of eight blocks (1 << 13 terms each), and a ragged last block
    @pytest.mark.parametrize("n_terms", [
        0, 1, (1 << 13) - 1, 1 << 13, (1 << 13) + 1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, 100_000,
    ])
    def test_matches_complex_reference(self, n_terms):
        assert self.block == 1 << 13
        for nu in seeded_nus():
            model = model_of(nu)
            want = 1.0
            for e in model.eigenvalues():
                if e.imag < 0:  # the conjugate of a factor already taken
                    continue
                ref = reference_factor(e, n_terms)
                assert rel(eigenvalue_factor_truncated(e, n_terms), ref) <= 1e-11
                want *= (abs(ref) * abs(e)) ** (1 if e.imag == 0 else 2)
            assert rel(zeta_det_laplacian(model, truncation=n_terms).truncated_value, want) <= 1e-11

    def test_discrepancy_at_float_noise_rank_three(self):
        rng = np.random.default_rng(62)
        checked = 0
        while checked < 20:
            m = rng.normal(size=(3, 3)) * rng.uniform(0.2, 3.0)
            if np.abs(np.linalg.eigvals(m) - 1).min() < 1e-3:
                continue
            assert zeta_det_laplacian(CircleModel(m), truncation=100_000).discrepancy <= 1e-13
            checked += 1

    def test_memory_is_one_block_at_any_truncation(self, monkeypatch):
        sizes = []
        real = np.arange

        def arange(*args, **kwargs):
            out = real(*args, **kwargs)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(np, "arange", arange)
        model = CircleModel([[0.3, 1.2, 0.1], [-0.7, 0.5, 2.0], [1.1, 0.0, 0.9]])
        res = zeta_det_laplacian(model, truncation=1_000_000)
        assert sum(sizes) == 1_000_000 and max(sizes) <= self.block
        assert res.discrepancy <= 1e-13

    def test_closed_form_value_unchanged(self):
        # the closed form multiplies |1 - nu|^2 out as it always has, bit for bit
        rng = np.random.default_rng(63)
        for _ in range(20):
            model = CircleModel(rng.normal(size=(3, 3)))
            want = 1.0
            for nu in model.eigenvalues():
                want *= abs(1.0 - complex(nu)) ** 2
            assert zeta_det_laplacian(model).value == want

    def test_range_is_decided_in_logs(self):
        with pytest.raises(FloatRangeError):
            zeta_det_laplacian(CircleModel([[1e200]]))
        with pytest.raises(FloatRangeError):
            zeta_det_laplacian(CircleModel([[1.0]], circumference=1e200), truncation=10, allow_zero_modes=True)
        with pytest.raises(FloatRangeError):  # the raw factor 1/nu leaves the range
            zeta_det_laplacian(CircleModel(1e-160 * np.eye(2)))
        # the factor (1e160 - 1)^2 alone overflows; with L^2 = 1e-20 the product does not
        model = CircleModel(np.diag([1e160, 1.0]), circumference=1e-10)
        res = zeta_det_laplacian(model, truncation=100_000, allow_zero_modes=True)
        assert rel(res.value, 1e300) <= 1e-12 and res.discrepancy <= 1e-12
        res = zeta_det_laplacian(CircleModel([[1e-150]]), truncation=100_000)
        assert res.value == abs(1.0 - 1e-150) ** 2 and res.discrepancy <= 1e-12

    def test_truncation_must_be_non_negative(self):
        model = CircleModel([[3.0]])
        with pytest.raises(ValueError, match="non-negative"):
            zeta_det_laplacian(model, truncation=-5)
        with pytest.raises(ValueError, match="non-negative"):
            zeta_det_laplacian(CircleModel([[1.0]]), truncation=-1, allow_zero_modes=True)
        res = zeta_det_laplacian(model, truncation=0)
        assert res.truncated_value > 0 and res.discrepancy < 1e-3


class TestModelValidation:
    def test_singular_holonomy_rejected(self):
        with pytest.raises(ValueError):
            CircleModel([[0.0]])

    def test_invertibility_is_scale_free(self):
        # the rule of FlatBundle: |det| against 1e-14 of the product of row norms
        model = CircleModel(1e-5 * np.eye(3))
        assert abs(analytic_torsion_circle(model).value - (1 - 1e-5) ** 3) <= 1e-12
        with pytest.raises(ValueError, match="invertible"):
            CircleModel([[1, 2], [2, 4]])
        with pytest.raises(ValueError, match="finite"):
            CircleModel([[math.nan]])
        with pytest.raises(ValueError, match="circumference"):
            CircleModel([[2.0]], circumference=math.inf)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            CircleModel(np.ones((2, 3)))

    def test_negative_circumference_rejected(self):
        with pytest.raises(ValueError):
            CircleModel([[2.0]], circumference=-1.0)
