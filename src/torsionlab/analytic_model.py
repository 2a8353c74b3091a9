"""Zeta-regularized torsion of the circle with arbitrary invertible holonomy.

The twisted form Laplacian on a circle of circumference L with holonomy H
has, per complex eigenvalue nu = r e^{i theta} of H, the spectrum
((2 pi n + theta) - i log r)^2 / L^2, n in Z.  The regularized determinant
of one such line is 4 sin^2(pi a) with a = (theta - i log r) / (2 pi), and
the modulus-corrected factor per eigenvalue is |1 - nu|^2, independent of L.
The truncated spectral product with an Euler-Maclaurin tail, and a Hurwitz
zeta derivative evaluation, are shipped as independent oracles.  The
truncated product is summed in real arithmetic, one log1p per term, over
blocks of at most _BLOCK terms, so its memory does not grow with N.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import mpmath
import numpy as np

from . import linalg_exact as lx
from .errors import FloatRangeError, ZeroModeError

_EIG_ONE_TOL = 1e-12
_BLOCK = 1 << 13  # terms of the truncated product per block; its two 64 KB buffers stay in cache


@dataclass
class CircleModel:
    holonomy: object  # square invertible real matrix (nested lists or ndarray)
    circumference: float = 1.0

    def __post_init__(self):
        h = self.holonomy
        if not isinstance(h, np.ndarray):
            try:
                h = lx.to_float(h)
            except TypeError:
                h = np.array(h, dtype=float)
        self.holonomy = np.array(h, dtype=float)
        if self.holonomy.ndim != 2 or self.holonomy.shape[0] != self.holonomy.shape[1]:
            raise ValueError("holonomy must be a square matrix")
        if not np.isfinite(self.holonomy).all():
            raise ValueError("holonomy entries must be finite")
        if lx.singular_float(self.holonomy):
            raise ValueError("holonomy must be invertible")
        if not 0 < float(self.circumference) < math.inf:
            raise ValueError("circumference must be positive and finite")

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
        """Geometric multiplicity of eigenvalue 1 (twisted harmonic rank): k less the rank of
        H - I at the cutoff 1e-10 * max(1, max |H|), by ``lx._markowitz``."""
        k, h = self.rank, self.holonomy
        cutoff = 1e-10 * max(1.0, float(np.abs(h).max()))
        return k - len(lx._float_pivots(h - np.eye(k), cutoff)[0])


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


def _spectral_shift(nu):
    """w = theta - i log r for nu = r e^{i theta}: the line's spectrum is (2 pi n + w)^2 / L^2."""
    nu = complex(nu)
    w = cmath.phase(nu) - 1j * math.log(abs(nu))
    if abs(w) < 1e-14:
        raise ZeroModeError("eigenvalue 1 has a zero mode; no full determinant")
    return w


def eigenvalue_factor_hurwitz(nu):
    """Hurwitz-zeta-derivative route to the raw factor (independent oracle)."""
    a = _spectral_shift(nu) / (2 * math.pi)
    za = mpmath.zeta(0, mpmath.mpc(a), 1)
    zb = mpmath.zeta(0, mpmath.mpc(1 - a), 1)
    log_det = -2.0 * complex(za + zb)
    return complex(cmath.exp(log_det))


def _truncated_logs(ws, n_terms, tail_correction=True, phase=False):
    """log|w^2 prod_{n<=N} (1 - z/n^2)^2| per w, z = (w / 2 pi)^2, plus its phase.

    lambda_n lambda_{-n} = (4 pi^2 n^2)^2 (1 - z/n^2)^2, so each pair counts
    twice; the divergent (4 pi^2 n^2)^2 is removed analytically.  Each term
    is one real log1p((|z|^2/n^2 - 2 Re z)/n^2) = log|1 - z/n^2|^2, and with
    `phase` one atan2(-Im z/n^2, 1 - Re z/n^2).  n runs in blocks of _BLOCK
    terms whose 1/n^2 is shared by every w, so memory is O(_BLOCK) for any
    N.  The Euler-Maclaurin tail -2z sum_{n>N} 1/n^2 - z^2 sum 1/n^4 comes
    from two polygamma values, once per call.  Returns (log moduli, phases),
    the phases zero unless asked for.
    """
    if n_terms < 0:
        raise ValueError(f"truncation must be non-negative, got {n_terms}")
    ws = [complex(w) for w in ws]
    zs = [(w / (2 * math.pi)) ** 2 for w in ws]
    mods = np.array([2.0 * math.log(abs(w)) for w in ws])
    args = np.array([2.0 * cmath.phase(w) for w in ws])
    if tail_correction:
        t1 = float(mpmath.psi(1, n_terms + 1))
        t3 = float(mpmath.psi(3, n_terms + 1)) / 6.0
        tails = [2.0 * (-z * t1 - (z * z / 2.0) * t3) for z in zs]
        mods += [t.real for t in tails]
        args += [t.imag for t in tails]
    work = np.empty(min(_BLOCK, n_terms))
    for lo in range(1, n_terms + 1, _BLOCK):
        inv = np.arange(lo, min(lo + _BLOCK, n_terms + 1), dtype=float)
        np.divide(1.0, np.square(inv, out=inv), out=inv)
        buf = work[: len(inv)]
        for i, z in enumerate(zs):
            np.multiply(inv, abs(z) ** 2, out=buf)
            buf -= 2.0 * z.real
            buf *= inv
            mods[i] += np.log1p(buf, out=buf).sum()
            if phase:
                np.multiply(inv, -z.real, out=buf)
                buf += 1.0
                args[i] += 2.0 * np.arctan2(-z.imag * inv, buf, out=buf).sum()
    return mods, args


def eigenvalue_factor_truncated(nu, n_terms, tail_correction=True):
    """Truncated spectral product with an Euler-Maclaurin tail correction.

    The divergent part of the log-product is removed analytically; what is
    summed is log(1 - w^2 / (4 pi^2 n^2)) for n <= N plus the integral-and-
    correction tail, then the n = 0 eigenvalue w^2 multiplies back in.
    """
    (mod,), (arg,) = _truncated_logs([_spectral_shift(nu)], n_terms, tail_correction, phase=True)
    return cmath.rect(lx.exp_float(float(mod), "truncated factor"), float(arg))


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
    log_l = 2 * len(at_one) * math.log(float(model.circumference))
    log_nu = math.fsum(math.log(abs(complex(nu))) for nu in live)
    # |1 - nu|^2 and |2 - nu - 1/nu| = |1 - nu|^2 / |nu|: the ranges are
    # decided in logs; in range, the values are the products of the factors
    log_value = math.fsum(2.0 * math.log(abs(1.0 - complex(nu))) for nu in live)
    in_range = lx.exp_float(log_value + log_l, "zeta determinant")
    lx.exp_float(log_value - log_nu, "raw zeta determinant")
    raw = complex(1.0)
    for nu in live:
        raw *= eigenvalue_factor_raw(nu)
    if not cmath.isfinite(raw):
        raise FloatRangeError("raw zeta determinant: a factor leaves the float range")
    value = 1.0
    try:
        for nu in live:
            value *= eigenvalue_factor_closed(nu)
        value *= float(model.circumference) ** (2 * len(at_one))
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):  # one factor left the range that the product is in
        value = in_range
    truncated = None
    discrepancy = None
    if truncation is not None:
        mods, _ = _truncated_logs([_spectral_shift(nu) for nu in live], truncation, tail_correction)
        truncated = lx.exp_float(math.fsum(mods) + log_nu + log_l, "truncated zeta determinant")
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
    return analytic_torsion_of_det(model, det0)


def analytic_torsion_of_det(model, det0):
    """Analytic torsion of the twisted circle from its 0-form determinant ``det0``."""
    m = model.zero_mode_dimension()
    value = math.sqrt(det0.value)
    return AnalyticTorsionResult(
        value=value,
        acyclic=(det0.zero_modes == 0),
        harmonic_dims={0: m, 1: m},
        det_zero_forms=det0.value,
        circumference=float(model.circumference),
    )
