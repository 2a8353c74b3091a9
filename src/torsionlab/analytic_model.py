"""Zeta-regularized torsion of the circle with arbitrary invertible holonomy.

The twisted form Laplacian on a circle of circumference L with holonomy H
has, per complex eigenvalue nu = r e^{i theta} of H, the spectrum
((2 pi n + theta) - i log r)^2 / L^2, n in Z.  The regularized determinant
of one such line is 4 sin^2(pi a) with a = (theta - i log r) / (2 pi), and
the modulus-corrected factor per eigenvalue is |1 - nu|^2, independent of L.
The truncated spectral product with an Euler-Maclaurin tail, and a Hurwitz
zeta derivative evaluation, are shipped as independent oracles.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import mpmath
import numpy as np

from . import linalg_exact as lx
from .errors import ZeroModeError

_EIG_ONE_TOL = 1e-12


@dataclass
class CircleModel:
    holonomy: object  # square invertible real matrix (nested lists or ndarray)
    circumference: float = 1.0

    def __post_init__(self):
        h = self.holonomy
        if not isinstance(h, np.ndarray):
            try:
                h = lx.to_float(lx.fmat(h))
            except TypeError:
                h = np.array(h, dtype=float)
        self.holonomy = np.array(h, dtype=float)
        if self.holonomy.ndim != 2 or self.holonomy.shape[0] != self.holonomy.shape[1]:
            raise ValueError("holonomy must be a square matrix")
        if abs(np.linalg.det(self.holonomy)) < 1e-14:
            raise ValueError("holonomy must be invertible")
        if float(self.circumference) <= 0:
            raise ValueError("circumference must be positive")

    @property
    def rank(self):
        return self.holonomy.shape[0]

    def eigenvalues(self):
        return np.linalg.eigvals(self.holonomy)

    def split_eigenvalues(self):
        """(unit-modulus eigenvalues, off-unit eigenvalues, eigenvalues at 1)."""
        at_one, unit, off = [], [], []
        for nu in self.eigenvalues():
            if abs(nu - 1.0) <= _EIG_ONE_TOL:
                at_one.append(nu)
            elif abs(abs(nu) - 1.0) <= _EIG_ONE_TOL:
                unit.append(nu)
            else:
                off.append(nu)
        return unit, off, at_one

    def zero_mode_dimension(self):
        """Geometric multiplicity of eigenvalue 1 (twisted harmonic rank)."""
        k = self.rank
        _, piv = lx.echelon_float(self.holonomy - np.eye(k), rtol=1e-10, scale=max(1.0, float(np.abs(self.holonomy).max())))
        return k - len(piv)


def eigenvalue_factor_closed(nu):
    """Modulus-corrected determinant factor of one holonomy eigenvalue.

    |2 - nu - 1/nu| is the raw regularized determinant of the line; the
    |nu| correction makes the factor |1 - nu|^2, which is what matches the
    combinatorial torsion for non-volume-preserving holonomy.
    """
    return abs(1.0 - complex(nu)) ** 2


def eigenvalue_factor_raw(nu):
    """Uncorrected regularized determinant 4 sin^2(pi a) of one line."""
    nu = complex(nu)
    return 2.0 - nu - 1.0 / nu


def eigenvalue_factor_hurwitz(nu):
    """Hurwitz-zeta-derivative route to the raw factor (independent oracle)."""
    nu = complex(nu)
    w = cmath.phase(nu) - 1j * math.log(abs(nu))
    a = w / (2 * math.pi)
    if abs(a) < 1e-14:
        raise ZeroModeError("eigenvalue 1 has a zero mode; no full determinant")
    za = mpmath.zeta(0, mpmath.mpc(a), 1)
    zb = mpmath.zeta(0, mpmath.mpc(1 - a), 1)
    log_det = -2.0 * complex(za + zb)
    return complex(cmath.exp(log_det))


def eigenvalue_factor_truncated(nu, n_terms, tail_correction=True):
    """Truncated spectral product with an Euler-Maclaurin tail correction.

    The divergent part of the log-product is removed analytically; what is
    summed is log(1 - w^2 / (4 pi^2 n^2)) for n <= N plus the integral-and-
    correction tail, then the n = 0 eigenvalue w^2 multiplies back in.
    """
    nu = complex(nu)
    w = cmath.phase(nu) - 1j * math.log(abs(nu))
    if abs(w) < 1e-14:
        raise ZeroModeError("eigenvalue 1 has a zero mode; no full determinant")
    n = np.arange(1, n_terms + 1, dtype=float)
    z = (w / (2 * math.pi)) ** 2
    # lambda_n lambda_{-n} = (4 pi^2 n^2)^2 (1 - z/n^2)^2: each pair counts twice
    s = 2.0 * np.sum(np.log1p(-z / (n * n)))
    tail = 0.0
    if tail_correction:
        # tail: -2z sum_{n>N} 1/n^2 - z^2 sum 1/n^4 - ..., via polygamma tails
        t1 = float(mpmath.psi(1, n_terms + 1))
        t3 = float(mpmath.psi(3, n_terms + 1)) / 6.0
        tail = 2.0 * (-z * t1 - (z * z / 2.0) * t3)
    return w * w * complex(cmath.exp(s + tail))


@dataclass
class ZetaDetResult:
    value: float  # modulus-corrected determinant (product over eigenvalues)
    raw_value: complex  # uncorrected product of 4 sin^2(pi a) factors
    truncated_value: float | None
    truncation: int | None
    discrepancy: float | None
    zero_modes: int
    circumference: float

    def to_jsonable(self):
        return {
            "value": self.value,
            "raw_value": [self.raw_value.real, self.raw_value.imag],
            "truncated_value": self.truncated_value,
            "truncation": self.truncation,
            "discrepancy": self.discrepancy,
            "zero_modes": self.zero_modes,
            "circumference": self.circumference,
        }


def zeta_det_laplacian(model, truncation=None, allow_zero_modes=False, tail_correction=True):
    """Regularized determinant of the twisted 0-form Laplacian on the circle.

    Closed form: product over eigenvalues nu of H of |1 - nu|^2 (the
    modulus-corrected 4 sin^2 factors); eigenvalues at 1 contribute L^2 per
    zero mode and are only admitted with allow_zero_modes.  With `truncation`
    the truncated-product route is evaluated alongside and the relative
    discrepancy reported.
    """
    unit, off, at_one = model.split_eigenvalues()
    if at_one and not allow_zero_modes:
        raise ZeroModeError(
            "holonomy has eigenvalue 1; pass allow_zero_modes for det'"
        )
    live = list(unit) + list(off)
    value = 1.0
    raw = complex(1.0)
    for nu in live:
        value *= eigenvalue_factor_closed(nu)
        raw *= eigenvalue_factor_raw(nu)
    value *= float(model.circumference) ** (2 * len(at_one))
    truncated = None
    discrepancy = None
    if truncation is not None:
        truncated = 1.0
        for nu in live:
            t = eigenvalue_factor_truncated(nu, truncation, tail_correction)
            truncated *= abs(t) * abs(complex(nu))
        truncated *= float(model.circumference) ** (2 * len(at_one))
        discrepancy = abs(truncated - value) / max(abs(value), 1e-300)
    return ZetaDetResult(
        value=float(value),
        raw_value=raw,
        truncated_value=truncated,
        truncation=truncation,
        discrepancy=discrepancy,
        zero_modes=len(at_one),
        circumference=float(model.circumference),
    )


@dataclass
class AnalyticTorsionResult:
    value: float
    acyclic: bool
    harmonic_dims: dict  # degree -> dimension of the twisted harmonic space
    det_zero_forms: float
    circumference: float

    def to_jsonable(self):
        return {
            "value": self.value,
            "acyclic": self.acyclic,
            "harmonic_dims": {str(k): v for k, v in sorted(self.harmonic_dims.items())},
            "det_zero_forms": self.det_zero_forms,
            "circumference": self.circumference,
        }


def analytic_torsion_circle(model, truncation=None):
    """Analytic torsion of the twisted circle, sqrt of the 0-form determinant.

    The 0- and 1-form Laplacians are isospectral, so the alternating rule
    leaves exp(1/2 log det' Delta_1) = sqrt(det' Delta_0).  For holonomy with
    no eigenvalue 1 this equals |det(H - I)| and is circumference-independent.
    """
    det0 = zeta_det_laplacian(model, truncation=truncation, allow_zero_modes=True)
    m = model.zero_mode_dimension()
    value = math.sqrt(det0.value)
    return AnalyticTorsionResult(
        value=value,
        acyclic=(det0.zero_modes == 0),
        harmonic_dims={0: m, 1: m},
        det_zero_forms=det0.value,
        circumference=float(model.circumference),
    )
