"""Twisted chain complexes, combinatorial Laplacians, and torsion metrics.

Boundary matrices follow the row convention: D_d has one k-row-block per
d-cell and one k-column-block per (d-1)-cell, with block(sigma, tau) the
signed sum of transports around leg(sigma) . connector . leg(tau)^-1.  Chains
act as row vectors, so the composite C_{d+1} -> C_{d-1} is D_{d+1} @ D_d = 0.

Determinant-line values are stored as squared norms: the torsion scalar
product evaluated on a reference element is

    value = t_comb^2 * prod_d det(Gram_d)^{(-1)^d}

with Gram_d the Gram matrix of the harmonic projections of the reference
homology cycles in degree d (even degrees straight, odd degrees dual; the
convention tag records this).  Fiber-frame changes at the base vertex move
the value by |det S|^(-2 chi), and the value is invariant under barycentric
subdivision and under re-choosing the spray inside its Euler structure once
references are transported.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import linalg_exact as lx
from .errors import FloatRangeError, IllConditionedError, TorsionLabError
from .euler_struct import act, leg_shift_loops, validate_spray
from .flat_bundle import require_flat, transport

RANK_TOL = 1e-10
GUARD_LOW, GUARD_HIGH = 0.1, 10.0

# Pinned sign exponent for the Euler-structure action on the torsion value:
# ratio = |det rho(u)|^EULER_ACTION_EXPONENT.  Fixed once by the one-cell
# circle oracle with rho(e) = [2] and asserted by the test suite.
EULER_ACTION_EXPONENT = -2

GRADING_CONVENTION = "chain_even_straight"


@dataclass
class TwistedChainComplex:
    complex: object
    bundle: object
    spray: object
    rank: int
    cell_order: dict  # d -> list of cell ids
    boundaries: dict  # d -> float ndarray, shape (k*n_d, k*n_{d-1})
    blocks: dict | None  # d -> {(d-cell, (d-1)-cell index): k x k Fraction block}, if exact
    frame: np.ndarray | None = None  # fiber frame applied at every cell

    @functools.cached_property
    def boundaries_exact(self):
        """d -> dense Fraction boundary laid out from ``blocks``; None unless exact."""
        if self.blocks is None:
            return None
        k, out = self.rank, {}
        for d, blocks in self.blocks.items():
            m = out[d] = lx.zeros(k * len(self.cell_order[d]), k * len(self.cell_order[d - 1]))
            for (i, j), block in blocks.items():
                for a, row in enumerate(block):
                    m[k * i + a][k * j : k * j + k] = row
        return out

    @property
    def dims(self):
        return {d: self.rank * len(ids) for d, ids in self.cell_order.items()}

    @property
    def top_dim(self):
        return max(self.cell_order) if self.cell_order else 0

    def boundary(self, d):
        if d in self.boundaries:
            return self.boundaries[d]
        return np.zeros((self.dims.get(d, 0), self.dims.get(d - 1, 0)))


@dataclass(frozen=True)
class DetLineMetric:
    """Squared norm of a declared reference element of a determinant line."""

    value: float
    grading_log: str = GRADING_CONVENTION
    reference: str = ""


@dataclass
class TorsionResult:
    t_comb: float
    harmonic_metric: DetLineMetric
    ft_metric: DetLineMetric
    acyclic: bool
    spectra: dict
    betti: dict = field(default_factory=dict)
    harmonic_bases: dict = field(default_factory=dict)

    def to_jsonable(self):
        return {
            "t_comb": self.t_comb,
            "ft_value": self.ft_metric.value,
            "harmonic_value": self.harmonic_metric.value,
            "grading": self.ft_metric.grading_log,
            "reference": self.ft_metric.reference,
            "acyclic": self.acyclic,
            "betti": {str(d): b for d, b in sorted(self.betti.items())},
            "spectra": {
                str(d): list(s) for d, s in sorted(self.spectra.items())
            },
        }


def assemble(complex_, bundle, spray):
    """Twisted chain complex from complex + bundle + spray."""
    complex_.require_valid()
    validate_spray(complex_, spray)
    require_flat(complex_, bundle)
    k = bundle.rank
    order = {d: [c.id for c in complex_.cells_of_dim(d)] for d in range(complex_.dim + 1)}
    walks = {(): bundle.identity()}
    leg_t = {}
    leg_t_inv = {}
    for cid, leg in spray.legs:
        m = _walk_transport(bundle, leg.steps, walks)
        leg_t[cid] = m
        leg_t_inv[cid] = bundle.inv(m)
    blocks, boundaries = {}, {}
    for d in range(1, complex_.dim + 1):
        ri = {c: i for i, c in enumerate(order[d])}
        ci = {c: j for j, c in enumerate(order[d - 1])}
        bmap = blocks[d] = {}
        for rec in complex_.incidences:
            if rec.coface not in ri:
                continue
            block = bundle.mul(
                bundle.mul(leg_t[rec.coface], _walk_transport(bundle, rec.path.steps, walks)),
                leg_t_inv[rec.face],
            )
            key = (ri[rec.coface], ci[rec.face])
            if bundle.exact:
                c, acc = rec.coeff, bmap.get(key)
                block = block if c == 1 else [[c * y for y in r] for r in block]
                bmap[key] = block if acc is None else [
                    [x + y for x, y in zip(r, t)] for r, t in zip(acc, block)
                ]
            else:
                bmap[key] = bmap.get(key, 0.0) + rec.coeff * block
        # one scatter of every block through the (n_d, k, n_{d-1}, k) view
        out = boundaries[d] = np.zeros((k * len(ri), k * len(ci)))
        if bmap:
            vals = list(bmap.values())
            vals = lx.to_float([r for b in vals for r in b]) if bundle.exact else np.array(vals)
            rows, cols = map(list, zip(*bmap))
            out.reshape(len(ri), k, len(ci), k)[rows, :, cols, :] = vals.reshape(-1, k, k)
    tcc = TwistedChainComplex(
        complex_, bundle, spray, k, order, boundaries, blocks if bundle.exact else None
    )
    _check_boundary_squared(tcc)
    if bundle.reference_basis is not None:
        tcc = to_frame(tcc, bundle.reference_basis_float())
    return tcc


def _walk_transport(bundle, steps, walks):
    """transport() along ``steps``, extending the longest walk already in ``walks``.

    ``walks`` maps step tuples to their transports and gains every prefix
    computed here.  The products are the ones transport() takes, in its order,
    so float results are bit-identical to it.
    """
    n = len(steps)
    while steps[:n] not in walks:
        n -= 1
    m = walks[steps[:n]]
    for i in range(n, len(steps)):
        m = bundle.mul(m, bundle.matrix(*steps[i]))
        walks[steps[: i + 1]] = m
    return m


def _check_boundary_squared(tcc):
    """D_d D_{d-1} == 0: in integers through shared faces if exact, else by BLAS."""
    rows = functools.cache(lambda d: _integer_rows(tcc.blocks[d], tcc.rank))
    for d in range(2, tcc.top_dim + 1):
        if tcc.blocks is not None:
            zero = _composes_to_zero(rows(d), rows(d - 1))
        else:
            up, dn = tcc.boundary(d), tcc.boundary(d - 1)
            scale = up.size and dn.size and max(np.abs(up).max() * np.abs(dn).max(), 1.0)
            zero = not scale or np.abs(up @ dn).max() <= 1e-9 * scale
        if not zero:
            raise TorsionLabError(f"twisted boundary squared is nonzero in degree {d}")


def _integer_rows(bmap, k):
    """D_d times one common denominator, as {row: [(column, int)]} of its nonzero entries."""
    span = range(k)
    ints = lx._scaled_integers([[x for b in bmap.values() for r in b for x in r]])[0][0]
    coords = [(k * i + a, k * j + b) for i, j in bmap for a in span for b in span]
    rows = defaultdict(list)
    for (r, c), v in zip(coords, ints):
        if v:
            rows[r].append((c, v))
    return rows


def _composes_to_zero(up, dn):
    """Whether the product of two integer row maps vanishes, summed in Python ints."""
    for entries in up.values():
        acc = defaultdict(int)
        for c, v in entries:
            for c2, w in dn.get(c, ()):
                acc[c2] += v * w
        if any(acc.values()):
            return False
    return True


def to_frame(tcc, frame):
    """Express the complex in a new fiber frame applied at every cell.

    Chains-as-rows transform by frame^T on the right in every cell's fiber, so
    each k x k boundary block conjugates; the standard inner product in the
    new coordinates is the metric that declares the frame orthonormal.
    """
    frame = np.asarray(frame, dtype=float)
    k, inv_t = tcc.rank, np.linalg.inv(frame.T)
    boundaries = {}
    for d, b in tcc.boundaries.items():
        left = frame.T @ b.reshape(b.shape[0] // k, k, b.shape[1])
        boundaries[d] = (left.reshape(-1, k) @ inv_t).reshape(b.shape)
    return replace(tcc, boundaries=boundaries, blocks=None, frame=frame)


def frame_coords(tcc, z_rows):
    """Rewrite reference rows given in default coordinates into tcc's frame."""
    z = np.asarray(z_rows, dtype=float)
    if tcc.frame is None:
        return z
    return (z.reshape(-1, tcc.rank) @ np.linalg.inv(tcc.frame.T)).reshape(z.shape)


def laplacians(tcc):
    """Degree-wise combinatorial Laplacians D_d D_d^T + D_{d+1}^T D_{d+1}."""
    out = {}
    for d in range(tcc.top_dim + 1):
        n = tcc.dims.get(d, 0)
        lap = np.zeros((n, n))
        dn = tcc.boundary(d) if d >= 1 else None
        up = tcc.boundary(d + 1) if d + 1 <= tcc.top_dim else None
        if dn is not None and dn.size:
            lap += dn @ dn.T
        if up is not None and up.size:
            lap += up.T @ up
        out[d] = lap
    return out


def _eig_split(lap, rank_tol):
    """Eigenvalues plus kernel dimension, with a guard band on the cutoff."""
    n = lap.shape[0]
    if n == 0:
        return np.array([]), 0, np.zeros((0, 0))
    asym = np.abs(lap - lap.T).max()
    if asym > 1e-9 * max(np.abs(lap).max(), 1.0):
        raise TorsionLabError("Laplacian is not symmetric")
    w, v = np.linalg.eigh((lap + lap.T) / 2.0)
    lam_max = float(w[-1]) if len(w) else 0.0
    if lam_max <= 0.0:
        return w, n, v
    cutoff = rank_tol * lam_max
    in_band = [x for x in w if GUARD_LOW * cutoff < x < GUARD_HIGH * cutoff]
    if in_band:
        raise IllConditionedError(
            f"eigenvalue {in_band[0]:.3e} falls in the rank guard band around {cutoff:.3e}"
        )
    kdim = int(np.sum(w <= cutoff))
    return w, kdim, v


def _log_det_prime(w, kdim):
    """log det' from an ascending spectrum whose first kdim values are the kernel."""
    return float(np.sum(np.log(w[kdim:])))


def _spectral_torsion(spectra, betti, harmonic_value=1.0):
    """(t_comb, t_comb^2 * harmonic_value) from the Laplacian spectra, summed in logs.

    log t_comb = 1/2 sum_{d>=1} (-1)^{d+1} d log det' Delta_d.
    """
    log_t = 0.5 * sum(
        (-1) ** (d + 1) * d * _log_det_prime(w, betti[d]) for d, w in spectra.items() if d
    )
    log_h = math.log(harmonic_value) if harmonic_value > 0.0 else -math.inf
    return lx.exp_float(log_t, "t_comb"), lx.exp_float(2.0 * log_t + log_h, "torsion value")


def det_prime(mat, rank_tol=RANK_TOL):
    """Product of the eigenvalues above the rank cutoff; 1 for the zero matrix."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise TorsionLabError("det_prime expects a square matrix")
    if mat.size and np.abs(mat - mat.T).max() > 1e-9 * max(np.abs(mat).max(), 1.0):
        raise TorsionLabError("det_prime expects a symmetric matrix")
    w, kdim, _ = _eig_split(mat, rank_tol)
    return lx.exp_float(_log_det_prime(w, kdim), "det'")


def harmonic_data(tcc, rank_tol=RANK_TOL):
    """Spectra, Betti numbers, and deterministic orthonormal kernel bases.

    The kernel basis is canonicalized through the orthogonal projector, so it
    does not depend on the eigensolver's internal basis choice: greedy pivot
    on the largest remaining projector column, orthonormalizing in order.
    """
    laps = laplacians(tcc)
    spectra, betti, bases = {}, {}, {}
    for d, lap in sorted(laps.items()):
        w, kdim, v = _eig_split(lap, rank_tol)
        spectra[d] = tuple(float(x) for x in w)
        betti[d] = kdim
        n = lap.shape[0]
        if kdim == 0 or n == 0:
            bases[d] = np.zeros((kdim, n))
            continue
        kernel = v[:, :kdim]
        proj = kernel @ kernel.T
        remaining = proj.copy()
        rows = []
        for _ in range(kdim):
            norms = np.linalg.norm(remaining, axis=0)
            j = int(np.argmax(norms))
            vec = remaining[:, j] / norms[j]
            pivot = int(np.argmax(np.abs(vec)))
            if vec[pivot] < 0:
                vec = -vec
            rows.append(vec)
            remaining = remaining - np.outer(vec, vec @ remaining)
        bases[d] = np.array(rows)
    return spectra, betti, bases


def t_comb(tcc, method="eig", rank_tol=RANK_TOL):
    """Torsion of the twisted complex, as a positive real.

    'eig' uses log t = 1/2 sum_d (-1)^{d+1} d log det' Delta_d; 'det' is the
    eigensolver-free route prod_d vol(D_d)^{(-1)^{d+1}} via Gaussian
    elimination; 'exact' evaluates the same product over the rationals.  A
    result outside the double range raises FloatRangeError.
    """
    if method == "eig":
        spectra, kdims = {}, {}
        for d, lap in laplacians(tcc).items():
            if d:
                spectra[d], kdims[d], _ = _eig_split(lap, rank_tol)
        return _spectral_torsion(spectra, kdims)[0]
    if method == "det":
        scale = max(
            (float(np.abs(b).max()) for b in tcc.boundaries.values() if b.size),
            default=1.0,
        )
        log_t = 0.0
        for d in range(1, tcc.top_dim + 1):
            b = tcc.boundary(d)
            if b.size == 0:
                continue
            log_t += (-1) ** (d + 1) * math.log(lx.vol_float(b, scale=max(scale, 1.0)))
        return lx.exp_float(log_t, "t_comb")
    if method == "exact":
        return _sqrt_float(t_comb_squared_exact(tcc))
    raise ValueError(f"unknown t_comb method {method!r}")


def _sqrt_float(x):
    """sqrt of a positive Fraction as a float.

    Bit for bit math.sqrt(float(x)) while x is a normal double, since x / 4**k
    lies in [1/2, 4) and rounding commutes with the power-of-two scaling; it
    stays finite when only the root fits in a double.
    """
    k = (x.numerator.bit_length() - x.denominator.bit_length()) // 2
    if abs(k) > 1000:
        raise FloatRangeError(f"exact torsion is about 2**{k}, outside the float range")
    return math.ldexp(math.sqrt(float(x / Fraction(4) ** k)), k)


def t_comb_squared_exact(tcc):
    """Exact rational square of the torsion, by Gaussian elimination only."""
    if tcc.boundaries_exact is None:
        raise TorsionLabError("exact torsion needs a rational bundle")
    out = Fraction(1)
    for d in range(1, tcc.top_dim + 1):
        b = tcc.boundaries_exact.get(d)
        if b is None or not b or not b[0]:
            continue
        v = lx.vol_sq(b)
        out = out * v if (d % 2 == 1) else out / v
    return out


def harmonic_metric(tcc, reference_cycles=None, rank_tol=RANK_TOL):
    """Scalar product on the homology determinant line, against a reference.

    With no reference the deterministic orthonormal kernel basis is the
    reference and the value is 1.  With reference cycles (rows per degree, in
    default chain coordinates) the value is prod_d det(Gram_d)^{(-1)^d} of
    their harmonic projections; a basis change by S in degree d moves the
    value by |det S|^{2 (-1)^d}.
    """
    spectra, betti, bases = harmonic_data(tcc, rank_tol)
    if reference_cycles is None:
        metric = DetLineMetric(
            value=1.0,
            reference="deterministic orthonormal kernel basis; fiber frame at base",
        )
        return metric, spectra, betti, bases
    value = 1.0
    for d in sorted(betti):
        b_d = betti[d]
        z = reference_cycles.get(d)
        if b_d == 0:
            if z is not None and len(z):
                raise TorsionLabError(f"degree {d} is acyclic but reference rows given")
            continue
        if z is None or len(z) != b_d:
            raise TorsionLabError(
                f"degree {d} needs {b_d} reference cycles, got {0 if z is None else len(z)}"
            )
        z = frame_coords(tcc, z)
        bd = tcc.boundary(d)
        if bd.size:
            resid = np.abs(z @ bd).max()
            if resid > 1e-6 * max(np.abs(z).max(), 1.0) * max(np.abs(bd).max(), 1.0):
                raise TorsionLabError(f"reference rows in degree {d} are not cycles")
        kernel = bases[d]  # orthonormal rows
        proj = z @ kernel.T @ kernel
        gram = proj @ proj.T
        g = float(np.linalg.det(gram))
        if g <= 0.0:
            raise TorsionLabError(f"reference classes in degree {d} are dependent")
        value *= g if d % 2 == 0 else 1.0 / g
    metric = DetLineMetric(value=value, reference="transported reference cycles")
    return metric, spectra, betti, bases


def ft_torsion(complex_, bundle, spray, reference_cycles=None, rank_tol=RANK_TOL):
    """Torsion scalar product on det H tensored with the fiber determinant.

    The stored value is the squared norm of the reference element:
    t_comb^2 times the harmonic determinant-line value.  The fiber factor is
    carried by the (orthonormal-by-declaration) reference frame, which is why
    a frame change S at the base vertex moves the value by |det S|^(-2 chi).
    """
    tcc = assemble(complex_, bundle, spray)
    return ft_torsion_of_tcc(tcc, reference_cycles, rank_tol)


def ft_torsion_of_tcc(tcc, reference_cycles=None, rank_tol=RANK_TOL):
    harm, spectra, betti, bases = harmonic_metric(tcc, reference_cycles, rank_tol)
    t, ft_value = _spectral_torsion(spectra, betti, harm.value)
    acyclic = all(b == 0 for b in betti.values())
    ft = DetLineMetric(
        value=ft_value,
        reference=harm.reference + "; fiber volume from the declared frame",
    )
    return TorsionResult(
        t_comb=t,
        harmonic_metric=harm,
        ft_metric=ft,
        acyclic=acyclic,
        spectra=spectra,
        betti=betti,
        harmonic_bases=bases,
    )


def transport_reference_between_sprays(tcc_alpha, complex_, bundle, alpha, beta, refs):
    """Rewrite degree-wise reference rows from alpha-frames to beta-frames.

    The per-cell frame shift is the transport of the based loop
    beta_leg . alpha_leg^-1, applied blockwise on the right as its inverse.
    """
    loops = leg_shift_loops(complex_, alpha, beta)
    k = bundle.rank
    bundle_f = bundle.as_float()
    out = {}
    for d, rows in refs.items():
        ids = tcc_alpha.cell_order.get(d, [])
        if rows is None or not len(ids):
            out[d] = rows
            continue
        w = np.zeros((k * len(ids), k * len(ids)))
        for i, cid in enumerate(ids):
            m = np.linalg.inv(transport(bundle_f, loops[cid]))
            w[k * i : k * i + k, k * i : k * i + k] = m
        out[d] = np.asarray(rows, dtype=float) @ w
    return out


def ft_torsion_pair(complex_, bundle, alpha, beta, rank_tol=RANK_TOL):
    """ft_torsion under alpha and under beta, with one shared reference.

    alpha's deterministic kernel basis is the reference; it is transported to
    beta's frames for the second result.  Each spray is assembled once.
    """
    tcc_a = assemble(complex_, bundle, alpha)
    res_a = ft_torsion_of_tcc(tcc_a, rank_tol=rank_tol)
    refs = {d: b for d, b in res_a.harmonic_bases.items() if b.size}
    refs_b = transport_reference_between_sprays(tcc_a, complex_, bundle, alpha, beta, refs)
    res_b = ft_torsion(complex_, bundle, beta, reference_cycles=refs_b, rank_tol=rank_tol)
    return res_a, res_b


def euler_action_on_torsion(complex_, bundle, alpha, u, rank_tol=RANK_TOL):
    """Ratio of torsion values between act(u, alpha) and alpha.

    References are shared (transported between the two spray frames), so the
    ratio is exactly |det rho(u)|^EULER_ACTION_EXPONENT, and 1 whenever the
    bundle preserves volume.
    """
    res_a, res_b = ft_torsion_pair(complex_, bundle, alpha, act(complex_, u, alpha), rank_tol)
    return res_b.ft_metric.value / res_a.ft_metric.value


def det_of_class(complex_, bundle, u):
    """|det| of the holonomy around a representative loop of u."""
    lat = complex_.h1_lattice()
    loop = lat.representative_loop(u.coords)
    return abs(float(bundle.det(transport(bundle, loop))))
