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
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import linalg_exact as lx
from .errors import DenseSizeError, FloatRangeError, IllConditionedError, TorsionLabError
from .euler_struct import act, leg_shift_loops, validate_spray
from .flat_bundle import _require_far_anchors_consistent, _vouched, require_flat

RANK_TOL = 1e-10
GUARD_LOW, GUARD_HIGH = lx._GUARD_LOW, lx._GUARD_HIGH  # the eliminator's band too

# Pinned sign exponent for the Euler-structure action on the torsion value:
# ratio = |det rho(u)|^EULER_ACTION_EXPONENT.  Fixed once by the one-cell
# circle oracle with rho(e) = [2] and asserted by the test suite.
EULER_ACTION_EXPONENT = -2

GRADING_CONVENTION = "chain_even_straight"

# Largest dense boundary, Gram matrix or Laplacian, in bytes at 8 per entry,
# that is built; beyond it DenseSizeError is raised before allocating.
DENSE_BUDGET_BYTES = 2**31


def _require_dense_fits(rows, cols, what):
    if rows * cols * 8 > DENSE_BUDGET_BYTES:
        raise DenseSizeError(
            f"{what} is {rows} x {cols}: {rows * cols * 8 / 2**30:.1f} GiB dense, over the "
            f"{DENSE_BUDGET_BYTES / 2**30:.1f} GiB budget"
        )


@dataclass(frozen=True)
class BlockRecord:
    """One degree's k x k boundary blocks over one denominator.

    Block (rows[n], cols[n]) is nums[n] / den; the (row, column) pairs are
    distinct and ascending.  nums is an (n_blocks, k, k) ndarray: integers (int64 or Python
    ints in object dtype) over a positive int den for an exact bundle, floats
    over den 1 for a float one.  The arrays are read-only, and so is the
    float view ``floats``, converted once on first read.
    """

    rows: np.ndarray
    cols: np.ndarray
    nums: np.ndarray
    den: int

    def __post_init__(self):
        for a in (self.rows, self.cols, self.nums):
            a.flags.writeable = False

    @functools.cached_property
    def floats(self):
        """The blocks as floats, each entry rounded as float(Fraction) is; read-only."""
        out = lx.scaled_to_float(self.nums, self.den)
        out.flags.writeable = False
        return out

    def sparse_columns(self):
        """The nonzero numerators as one {row: numerator} map per nonzero column, keyed by
        column index; rows and columns are indices of the fiber-expanded boundary."""
        k = self.nums.shape[1]
        n, a, b = np.nonzero(self.nums)
        out = {}
        for i, j, v in zip(
            (k * self.rows[n] + a).tolist(), (k * self.cols[n] + b).tolist(),
            self.nums[n, a, b].tolist(),
        ):
            out.setdefault(j, {})[i] = v
        return out


@dataclass
class TwistedChainComplex:
    """Twisted boundaries of one (complex, bundle, spray) triple, stored as blocks.

    ``blocks`` is the only stored form, with each record's float view once
    read.  The tau-chains eliminate the blocks' sparse columns; only the
    spectral oracle (``_gram``), the suites, the tests and inspection lay
    out a dense float D_d, afresh on each call (``boundary``, ``_layout``).
    ``assemble`` hands the same object to every caller of the same triple,
    so all arrays are read-only; build a changed complex with
    ``dataclasses.replace``, as ``to_frame`` does.  Such a copy starts with
    no tau-chain and an empty ``_ft`` memo.
    """

    rank: int
    cell_order: dict  # d -> list of cell ids
    blocks: dict  # d >= 1 -> BlockRecord of D_d
    frame: np.ndarray | None = None  # fiber frame applied at every cell
    # rank_tol (None for the exact tau-chain) -> (log t_comb, betti, bases) of the ft route
    _ft: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def exact(self):
        """Whether the blocks hold integer numerators (a rational bundle and frame)."""
        return all(rec.nums.dtype.kind != "f" for rec in self.blocks.values())

    @functools.cached_property
    def boundaries_exact(self):
        """d -> dense Fraction boundary rows laid out from ``blocks``; None unless exact.

        A view for inspection: no route of the library reads it.
        """
        if not self.exact:
            return None
        return {d: self._layout(d, exact=True).tolist() for d in self.blocks}

    @functools.cached_property
    def dims(self):
        return {d: self.rank * len(ids) for d, ids in self.cell_order.items()}

    @property
    def top_dim(self):
        return max(self.cell_order) if self.cell_order else 0

    @functools.cached_property
    def _tau(self):
        """The exact ``_tau_chain`` of this complex, run once: every exact route reads it."""
        return _tau_chain(self)

    def boundary(self, d):
        """Dense float D_d (empty past either end), laid out afresh on each call, read-only."""
        m = self._layout(d)
        m.flags.writeable = False
        return m

    def _layout(self, d, exact=False):
        """Dense D_d from its blocks: floats rounded as float(Fraction), or Fractions if exact.

        One scatter of every block through the (n_d, k, n_{d-1}, k) view;
        DenseSizeError before anything is allocated past the budget.
        """
        k, rec = self.rank, self.blocks.get(d)
        shape = (self.dims.get(d, 0), self.dims.get(d - 1, 0))
        _require_dense_fits(*shape, f"degree-{d} boundary")
        out = np.full(shape, Fraction(0), dtype=object) if exact else np.zeros(shape)
        if rec is not None:
            vals = np.frompyfunc(Fraction, 2, 1)(rec.nums, rec.den) if exact else rec.floats
            out.reshape(shape[0] // k, k, shape[1] // k, k)[rec.rows, :, rec.cols, :] = vals
        return out


@dataclass(frozen=True)
class DetLineMetric:
    """Squared norm of a declared reference element of a determinant line."""

    value: float
    grading_log: str = GRADING_CONVENTION
    reference: str = ""


@dataclass
class TorsionResult:
    """ft_torsion of tcc.  t_comb, betti and harmonic_bases come from the exact tau-chain of a
    rational tcc and from the float tau-chain of a float one; ``spectra``, the eigensolver
    oracle, waits for a read, and ``to_jsonable`` writes it as null where the read raises."""

    t_comb: float
    harmonic_metric: DetLineMetric
    ft_metric: DetLineMetric
    acyclic: bool
    tcc: TwistedChainComplex = field(repr=False, compare=False)
    rank_tol: float = field(repr=False, compare=False)
    betti: dict = field(default_factory=dict)
    harmonic_bases: dict = field(default_factory=dict)

    @functools.cached_property
    def spectra(self):
        """``harmonic_data``'s spectra of tcc, computed on first read under the dense budget;
        IllConditionedError if their zero counts disagree with the tau-chain's betti."""
        spectra, betti, _ = _spectra(self.tcc, self.rank_tol)
        if betti != self.betti:
            raise IllConditionedError(f"the spectra give Betti numbers {betti}, not {self.betti}")
        return {d: tuple(float(x) for x in w) for d, w in spectra.items()}

    def to_jsonable(self):
        try:
            spectra = {str(d): list(s) for d, s in sorted(self.spectra.items())}
        except (DenseSizeError, IllConditionedError):  # the oracle failed; the tau-chain holds
            spectra = None
        return {
            "t_comb": self.t_comb,
            "ft_value": self.ft_metric.value,
            "harmonic_value": self.harmonic_metric.value,
            "grading": self.ft_metric.grading_log,
            "reference": self.ft_metric.reference,
            "acyclic": self.acyclic,
            "betti": {str(d): b for d, b in sorted(self.betti.items())},
            "spectra": spectra,
        }


def assemble(complex_, bundle, spray):
    """Twisted chain complex from complex + bundle + spray.

    One ``FlatBundle.transports`` call takes every leg and incidence path,
    and one more every inverse leg; each degree's blocks leg . path . leg^-1
    are two stacked products of rows of those stacks, summed per (cell,
    face) pair in incidence order.  No dense boundary is built here.

    The bundle keeps its last result: asked again for the same complex (by
    identity) and an equal spray, it returns that object.  All three inputs
    are immutable, so the spray, flatness, far-anchor and D.D checks are not
    repeated; validity is checked on every call.  A result for the same
    complex and another spray skips only the flatness and far-anchor checks
    (``flat_bundle._require_far_anchors_consistent``), which do not depend
    on the spray.
    """
    complex_.require_valid()
    spray_ok, flat = _vouched(bundle, complex_, spray)
    if spray_ok:
        return bundle.last_assembly[2]
    validate_spray(complex_, spray)
    if not flat:
        require_flat(complex_, bundle)
        _require_far_anchors_consistent(complex_, bundle)
    k = bundle.rank
    order = {d: [c.id for c in complex_.cells_of_dim(d)] for d in range(complex_.dim + 1)}
    recs = {d: [] for d in order if d}
    for r in complex_.incidences:
        recs[complex_.cell(r.coface).dim].append(r)
    leg = {cid: i for i, (cid, _) in enumerate(spray.legs)}
    fwd, fden = bundle.transports(
        [p.steps for _, p in spray.legs] + [r.path.steps for d in recs for r in recs[d]]
    )
    inv = bundle.transports([p.steps for _, p in spray.legs], inverse=True)
    blocks, at = {}, len(spray.legs)
    for d, rs in recs.items():
        ri = {c: i for i, c in enumerate(order[d])}
        ci = {c: j for j, c in enumerate(order[d - 1])}
        legs = (fwd[[leg[r.coface] for r in rs]], fden)
        prod = lx.scaled_matmul(legs, (fwd[at : at + len(rs)], fden))
        prod = lx.scaled_matmul(prod, (inv[0][[leg[r.face] for r in rs]], inv[1]))
        at += len(rs)
        keys = np.array([ri[r.coface] * len(ci) + ci[r.face] for r in rs], dtype=np.int64)
        coeffs = np.array([r.coeff for r in rs], dtype=np.int64)
        keys, (nums, den) = lx.scaled_sum(keys, coeffs, prod)
        blocks[d] = BlockRecord(keys // len(ci), keys % len(ci), nums, den)
    tcc = TwistedChainComplex(k, order, blocks)
    _check_boundary_squared(tcc)
    if bundle.reference_basis is not None:
        tcc = to_frame(tcc, bundle.reference_basis)
    bundle.last_assembly = (complex_, spray, tcc)
    return tcc


def _check_boundary_squared(tcc):
    """D_d D_{d-1} == 0, composed block by block through shared faces."""
    for d in range(2, tcc.top_dim + 1):
        if not _composes_to_zero(tcc.blocks[d], tcc.blocks[d - 1]):
            raise TorsionLabError(f"twisted boundary squared is nonzero in degree {d}")


def _composes_to_zero(up, dn):
    """Whether up . dn vanishes for two block records, composed through shared faces.

    Every (up block, dn block) pair that meets in a face is one product of a
    stacked matmul; the pairs are sorted by (up row, dn column) and summed
    per key by one reduceat.  Integer sums must be 0 (Python ints past the
    int64 bound); float sums within 1e-9 of the largest entry product (at
    least 1).
    """
    lo = dn.rows.searchsorted(up.cols)  # dn.rows ascend
    count = dn.rows.searchsorted(up.cols, "right") - lo
    p = np.arange(len(count)).repeat(count)
    if not len(p):
        return True
    q = (lo - count.cumsum() + count).repeat(count) + np.arange(len(p))
    keys = up.rows[p] * (int(dn.cols.max()) + 1) + dn.cols[q]
    order = keys.argsort(kind="stable")
    p, q, keys = p[order], q[order], keys[order]
    first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    a, b = up.nums[p], dn.nums[q]
    if a.dtype.kind == "f":
        scale = max(np.abs(up.nums).max() * np.abs(dn.nums).max(), 1.0)
        return np.abs(np.add.reduceat(a @ b, first)).max() <= 1e-9 * scale
    if lx._peak(up.nums) * lx._peak(dn.nums) * up.nums.shape[-1] * len(p) >= 2**63:
        a, b = a.astype(object), b.astype(object)
    return not np.add.reduceat(a @ b, first).any()


def to_frame(tcc, frame):
    """Express the complex in a new fiber frame applied at every cell.

    Chains-as-rows transform by frame^T on the right in every cell's fiber, so
    each k x k boundary block B becomes frame^T B frame^-T; the standard inner
    product in the new coordinates is the metric that declares the frame
    orthonormal.  A rational frame (rows of Fractions or ints) keeps exact
    blocks exact; under a float array the blocks are rounded to floats first.
    """
    exact = tcc.exact and not isinstance(frame, np.ndarray)
    f = lx.scaled(lx.fmat(frame)) if exact else (np.asarray(frame, dtype=float), 1)
    f_t = (f[0].T, f[1])
    inv_t = lx.scaled_inverse(f_t)
    blocks = {}
    for d, rec in tcc.blocks.items():
        b = (rec.nums, rec.den) if exact else (rec.floats, 1)
        nums, den = lx.scaled_matmul(lx.scaled_matmul(f_t, b), inv_t)
        blocks[d] = BlockRecord(rec.rows, rec.cols, nums, den)
    return replace(tcc, blocks=blocks, frame=lx.scaled_to_float(*f))


def frame_coords(tcc, z_rows):
    """Rewrite reference rows given in default coordinates into tcc's frame."""
    z = np.asarray(z_rows, dtype=float)
    if tcc.frame is None:
        return z
    return (z.reshape(-1, tcc.rank) @ np.linalg.inv(tcc.frame.T)).reshape(z.shape)


def laplacians(tcc):
    """Degree-wise combinatorial Laplacians D_d D_d^T + D_{d+1}^T D_{d+1}."""
    return {d: _laplacian(tcc, d) for d in range(tcc.top_dim + 1)}


def _laplacian(tcc, d):
    n = tcc.dims.get(d, 0)
    _require_dense_fits(n, n, f"degree-{d} Laplacian")
    lap = _gram(tcc, d, d)
    lap += _gram(tcc, d + 1, d)
    return lap


def _gram(tcc, d, on):
    """D_d D_d^T (on == d) or D_d^T D_d (on == d - 1) of one dense layout of D_d.

    Past either end D_d is empty and its Gram zero.
    """
    b = tcc._layout(d)
    return b @ b.T if on == d else b.T @ b


def _require_rank_tol(rank_tol):
    if not 0.0 < rank_tol < 1.0:  # false for nan too
        raise ValueError(f"rank tolerance must be a finite number in (0, 1), got {rank_tol!r}")


def _nonzero(w, lam_max, rank_tol):
    """Ascending values of w above the cutoff rank_tol * lam_max, with a guard band on it."""
    _require_rank_tol(rank_tol)
    if lam_max <= 0.0:
        return w[:0]
    cutoff = rank_tol * lam_max
    in_band = w[(GUARD_LOW * cutoff < w) & (w < GUARD_HIGH * cutoff)]
    if in_band.size:
        raise IllConditionedError(
            f"eigenvalue {in_band[0]:.3e} falls in the rank guard band around {cutoff:.3e}"
        )
    return np.sort(w[w > cutoff])


def _spectra(tcc, rank_tol):
    """Laplacian spectra (b_d zeros, then ascending), Betti numbers and lambda_max per degree.

    D_{d+1} D_d = 0, so the nonzero spectrum of Delta_d is that of D_d D_d^T
    together with that of D_{d+1}^T D_{d+1}: one values-only eigensolve per
    boundary, on the smaller of its two Gram matrices, serves both degrees.
    Each Gram is the product of a dense layout of D_d (``_gram``); every
    boundary and every Gram is checked against the dense budget before any
    is built.
    """
    side = {d: d - 1 if tcc.dims[d - 1] < tcc.dims[d] else d for d in tcc.blocks}
    for d, on in side.items():
        _require_dense_fits(tcc.dims[on], tcc.dims[on], f"degree-{d} Gram matrix")
    for d in side:
        _require_dense_fits(tcc.dims[d], tcc.dims[d - 1], f"degree-{d} boundary")
    grams = {d: np.linalg.eigvalsh(_gram(tcc, d, on)) for d, on in side.items()}
    spectra, betti, lam_max = {}, {}, {}
    for d in range(tcc.top_dim + 1):
        w = np.concatenate([grams.get(d, []), grams.get(d + 1, [])])
        lam_max[d] = float(w.max(initial=0.0))
        nz = _nonzero(w, lam_max[d], rank_tol)
        betti[d] = tcc.dims.get(d, 0) - len(nz)
        if betti[d] < 0:
            raise IllConditionedError(f"degree {d} has more nonzero eigenvalues than cells")
        spectra[d] = np.concatenate([np.zeros(betti[d]), nz])
    return spectra, betti, lam_max


def _spectral_log_t(spectra, betti):
    """log t_comb = 1/2 sum_{d>=1} (-1)^{d+1} d log det' Delta_d, from ascending spectra whose
    first betti[d] values are the kernel."""
    return 0.5 * sum(
        (-1) ** (d + 1) * d * float(np.sum(np.log(w[betti[d]:]))) for d, w in spectra.items() if d
    )


def harmonic_data(tcc, rank_tol=RANK_TOL):
    """Spectra, Betti numbers, and deterministic orthonormal kernel bases, by eigensolvers.

    The eigensolver oracle of the ft route, which reads a tau-chain on either
    field; its spectra are ``TorsionResult.spectra`` and those of
    ``t_comb(tcc, "eig")``, and every call runs afresh.  The cutoff is
    rank_tol * lambda_max per degree, not the tau-chains' rank_tol * max(1,
    largest |entry|).  spectra[d] holds b_d exact zeros, then the Gram
    eigenvalues above the cutoff (``_spectra``).  Only degrees with b_d > 0
    build Delta_d = D_d D_d^T + D_{d+1}^T D_{d+1}, from the two boundaries laid
    out dense, and run eigh; Delta_d is checked against the dense
    budget before it is built.  ``_canonical_basis`` makes the kernel basis
    independent of the eigensolver; the bases are read-only.
    """
    spectra, betti, lam_max = _spectra(tcc, rank_tol)
    bases = {}
    for d, kdim in betti.items():
        n = len(spectra[d])
        spectra[d] = tuple(float(x) for x in spectra[d])
        if kdim == 0:
            bases[d] = np.zeros((0, n))
            continue
        w, v = np.linalg.eigh(_laplacian(tcc, d))
        if n - len(_nonzero(w, lam_max[d], rank_tol)) != kdim:
            raise IllConditionedError(f"degree {d}: Laplacian kernel disagrees with Gram spectra")
        bases[d] = _canonical_basis(v[:, :kdim].T)
    for b in bases.values():
        b.flags.writeable = False
    return spectra, betti, bases


def _orthonormal(rows, n):
    """Canonical orthonormal rows (read-only) spanning sparse {index: value} rows over n indices.

    Each row is scaled by its largest |entry| (exact int / int for integers: no
    overflow), then one QR and ``_canonical_basis``; for both fields' tau-chains.
    """
    a = np.zeros((len(rows), n))
    for row, x in zip(a, rows):
        top = max(map(abs, x.values()))
        row[list(x)] = [v / top for v in x.values()]
    out = _canonical_basis(np.linalg.qr(a.T)[0].T) if rows else a
    out.flags.writeable = False
    return out


def _canonical_basis(q):
    """The deterministic orthonormal basis of the span of orthonormal rows q (b x n).

    Greedy on P = q^T q: normalize its largest column (the lowest index among norms within
    1e-9 of the largest), deflate, repeat.  ||P[:, j]|| = ||q[:, j]||, so it all runs on
    b-vectors u, P deflated being q^T (I - sum u u^T) q; each row is positive at its pivot.
    """
    us, rows = np.zeros((len(q), len(q))), np.zeros(q.shape)
    norms = np.einsum("ij,ij->j", q, q)  # squared
    for k, row in enumerate(rows):
        j = int(np.argmax(norms >= (1.0 - 2e-9) * norms.max()))
        u = us[k]
        u[:] = q[:, j] - rows[:k, j] @ us[:k]  # (I - sum u u^T) q_j, as rows[i, j] = u_i . q_j
        u /= math.sqrt(u @ u)
        row[:] = u @ q
        norms -= row * row
    return rows


def t_comb(tcc, method="eig", rank_tol=RANK_TOL):
    """Torsion of the twisted complex, as a positive real.

    'eig' uses log t = 1/2 sum_d (-1)^{d+1} d log det' Delta_d; 'det' is the
    eigensolver-free float tau-chain of every record's floats, run afresh on
    each call, with the cutoff rank_tol * max(1, largest |entry|); 'exact'
    is the tau-chain over the rationals (``t_comb_squared_exact``).  A result
    outside the double range raises FloatRangeError.
    """
    if method == "eig":
        return lx.exp_float(_spectral_log_t(*_spectra(tcc, rank_tol)[:2]), "t_comb")
    if method == "det":
        return lx.exp_float(_tau_chain(tcc, rank_tol)[0], "t_comb")
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
    """Exact rational square of the torsion, by a tau-chain (``_tau_chain``, once per tcc)."""
    return tcc._tau[0]


def _tau_chain(tcc, rank_tol=None):
    """(t_comb^2 as a Fraction, exact Betti numbers, integer harmonic bases) from one sparse
    elimination per degree; ``tcc._tau`` keeps the result, and every exact route reads that.

    Top-down over d, ``lx._markowitz`` eliminates the transpose of D_d[E_d, :],
    E_d the d-rows that are not pivot columns Q_{d+1} of D_{d+1}: pivot rows
    P_d, columns Q_d, +-det A_d = D_d[P_d, Q_d], and b_d rows L_d of E_d left
    over.  Adjacent pivots are complementary (a tau-chain: Milnor 1966;
    Turaev 2001, ch. I), so t^2 = prod_d (det A_d / den_d^r_d)^(2 (-1)^(d+1))
    for homology bases Z_d, the cycles that are 1 on L_d and 0 on Q_{d+1}
    (``lx._kernel``).  Where b_d > 0, (det(Z H^T)^2 / det(H H^T))^((-1)^(d+1))
    moves them to orthonormal harmonic bases; H, the harmonic d-chains, is the
    kernel of D_d[:, Q_d]^T stacked on D_{d+1}[P_{d+1}, :], or Z where D_{d+1} = 0 (unit
    rows on L_d where D_d = 0 too); bases[d] is H as sparse {index: value} rows.

    Given rank_tol, the same elimination runs afresh over every record's
    floats, rational ones too, so it stays independent of the exact route.
    The cutoff is rank_tol * max(1, largest |entry|) (threshold pivoting and
    a guard band, ``lx._markowitz``), and the result is (log t_comb, Betti
    numbers, float bases H) with log t = sum_d (-1)^(d+1) (log |det A_d| +
    log |det(Z Q^T)|), Q the orthonormal rows of a QR of H.
    """
    exact, cutoff, blocks = rank_tol is None, None, tcc.blocks
    if exact and not tcc.exact:
        raise TorsionLabError("exact torsion needs a rational bundle")
    if not exact:
        _require_rank_tol(rank_tol)
        blocks = {d: BlockRecord(r.rows, r.cols, r.floats, 1) for d, r in blocks.items()}
        top = [float(np.abs(r.nums).max()) for r in blocks.values() if r.nums.size]
        cutoff = rank_tol * max([1.0] + top)
    parts, log_t, betti, bases = [], 0.0, {}, {}  # t^2 = prod x^e over the (x, e) in parts
    hit, cols_up, rows_up = set(), {}, set()  # Q_{d+1}, D_{d+1} by columns, P_{d+1}
    for d in range(tcc.top_dim, -1, -1):
        rec, sign = blocks.get(d), 1 if d % 2 else -1
        cols = rec.sparse_columns() if rec else {}
        # pivots of the transpose: (column q of D_d, row p of D_d, kept map)
        pivots, det_a = lx._markowitz(
            {q: {p: v for p, v in col.items() if p not in hit} for q, col in cols.items()}, cutoff
        )
        if not exact:
            log_t += sign * det_a
        elif pivots:
            parts += [(det_a, 2 * sign), (rec.den, -2 * sign * len(pivots))]
        rows = {p for _, p, _ in pivots}
        left = [p for p in range(tcc.dims[d]) if p not in hit and p not in rows]
        betti[d], bases[d] = len(left), [{p: 1} for p in left]
        if left and (pivots or rows_up):  # with neither, Z = H are unit rows
            z = lx._kernel(pivots, left)
            scale = math.prod(s for _, s in z)
            h = z = bases[d] = [x for x, _ in z]
            if rows_up:  # else D_{d+1} = 0, so H = Z
                stacked = {q: dict(cols[q]) for q, _, _ in pivots}
                for p, col in cols_up.items():
                    for i, v in col.items():
                        if i in rows_up:
                            stacked.setdefault(~i, {})[p] = v
                piv = lx._markowitz(stacked, cutoff)[0]
                fixed = {p for _, p, _ in piv}
                free = [p for p in range(tcc.dims[d]) if p not in fixed]
                h = bases[d] = [x for x, _ in lx._kernel(piv, free)]
            if exact:
                zh = _dot_det(z, h)
                hh = zh if h is z else _dot_det(h, h)
                parts += [(zh, 2 * sign), (hh, -sign), (scale, -2 * sign)]
            else:
                log_t += sign * _log_det_onto(z, h, tcc.dims[d])
        hit, cols_up, rows_up = {q for q, _, _ in pivots}, cols, rows
    betti, bases = dict(sorted(betti.items())), dict(sorted(bases.items()))
    if not exact:
        return log_t, betti, bases
    num = math.prod(x.numerator**e if e > 0 else x.denominator**-e for x, e in parts)
    den = math.prod(x.denominator**e if e > 0 else x.numerator**-e for x, e in parts)
    return Fraction(num, den), betti, bases


def _dot_det(a, b):
    """det of the integer matrix a[r] . b[c] of two lists of sparse {index: int} vectors."""
    m = [[sum(v * y.get(c, 0) for c, v in x.items()) for y in b] for x in a]
    sign, pivot = lx._bareiss(m, len(m))
    return sign * pivot


def _log_det_onto(z, h, n):
    """log |det(Z Q^T)| for two lists of sparse {index: float} rows over n indices, Q the
    orthonormal rows of a QR of H; IllConditionedError if Z is singular on span(H)."""
    a, b = np.zeros((len(z), n)), np.zeros((len(h), n))
    for m, xs in ((a, z), (b, h)):
        for row, x in zip(m, xs):
            row[list(x)] = list(x.values())
    sign, log_det = np.linalg.slogdet(a @ np.linalg.qr(b.T)[0])
    if not sign:
        raise IllConditionedError("homology cycles are singular on the harmonic chains")
    return float(log_det)


def harmonic_metric(tcc, reference_cycles=None, rank_tol=RANK_TOL):
    """(metric, betti, bases): the scalar product on the homology determinant line.

    betti and the deterministic orthonormal harmonic bases come from the
    exact tau-chain of a rational complex and the float tau-chain of a float one.
    With no reference those bases are the reference and the value is 1.
    With reference cycles (rows per degree, in default chain coordinates) the
    value is prod_d det(Gram_d)^{(-1)^d} of their harmonic projections; a
    basis change by S in degree d moves the value by |det S|^{2 (-1)^d}.
    """
    return _harmonic_metric(tcc, reference_cycles, rank_tol)[1:]


def _harmonic_metric(tcc, reference_cycles, rank_tol):
    """(log t_comb, metric, betti, bases) from a tau-chain, with no eigensolver and no Gram.

    A rational complex reads its exact tau-chain (``tcc._tau``), a float one
    the float tau-chain at rank_tol; either is kept in ``tcc._ft`` (keyed by
    None or rank_tol) with the canonical orthonormal bases of its H rows.
    """
    _require_rank_tol(rank_tol)
    key = None if tcc.exact else rank_tol
    if key not in tcc._ft:
        if tcc.exact:
            t2, betti, h = tcc._tau
            log_t = 0.5 * (math.log(t2.numerator) - math.log(t2.denominator))
        else:
            log_t, betti, h = _tau_chain(tcc, rank_tol)
        tcc._ft[key] = log_t, betti, {d: _orthonormal(x, tcc.dims[d]) for d, x in h.items()}
    log_t, betti, bases = tcc._ft[key]
    betti, bases = dict(betti), dict(bases)
    if reference_cycles is None:
        ref = "deterministic orthonormal kernel basis; fiber frame at base"
        return log_t, DetLineMetric(value=1.0, reference=ref), betti, bases
    log_value = 0.0
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
        if d in tcc.blocks and not _are_cycles(z, tcc.blocks[d], tcc.dims[d - 1]):
            raise TorsionLabError(f"reference rows in degree {d} are not cycles")
        # rows scaled to max-abs 1, so the Gram determinant neither under- nor overflows
        scale = np.abs(z).max(axis=1)
        kernel = bases[d]  # orthonormal rows
        proj = (z / np.where(scale > 0.0, scale, 1.0)[:, None]) @ kernel.T @ kernel
        sign, log_g = np.linalg.slogdet(proj @ proj.T)
        if sign <= 0.0:
            raise TorsionLabError(f"reference classes in degree {d} are dependent")
        log_g += 2.0 * float(np.sum(np.log(scale)))
        log_value += log_g if d % 2 == 0 else -log_g
    value = lx.exp_float(log_value, "harmonic value")
    return log_t, DetLineMetric(value, reference="transported reference cycles"), betti, bases


def _are_cycles(z, rec, n_faces):
    """Whether z . D_d vanishes, within 1e-6 of the entry scale, taken block by block."""
    if not len(rec.rows):
        return True
    k, x = rec.nums.shape[1], rec.floats
    terms = z.reshape(len(z), -1, k)[:, rec.rows].transpose(1, 0, 2) @ x  # (block, row of z, k)
    zd = np.zeros((n_faces // k,) + terms.shape[1:])
    np.add.at(zd, rec.cols, terms)
    return np.abs(zd).max() <= 1e-6 * max(np.abs(z).max(), 1.0) * max(np.abs(x).max(), 1.0)


def ft_torsion(complex_, bundle, spray, reference_cycles=None, rank_tol=RANK_TOL):
    """Torsion scalar product on det H tensored with the fiber determinant.

    The stored value is the squared norm of the reference element:
    t_comb^2 times the harmonic determinant-line value.  The fiber factor is
    carried by the (orthonormal-by-declaration) reference frame, which is why
    a frame change S at the base vertex moves the value by |det S|^(-2 chi).

    t_comb, betti and the harmonic bases come from a tau-chain, with no eigensolver and no
    Gram matrix: the exact one for a rational bundle, the float one (cutoff rank_tol *
    max(1, largest |entry|) on pivots) for a float bundle, each kept on the complex.
    """
    tcc = assemble(complex_, bundle, spray)
    return ft_torsion_of_tcc(tcc, reference_cycles, rank_tol)


def ft_torsion_of_tcc(tcc, reference_cycles=None, rank_tol=RANK_TOL):
    log_t, harm, betti, bases = _harmonic_metric(tcc, reference_cycles, rank_tol)
    log_h = math.log(harm.value) if harm.value > 0.0 else -math.inf  # summed in logs
    t, ft_value = lx.exp_float(log_t, "t_comb"), lx.exp_float(2 * log_t + log_h, "torsion value")
    ref = harm.reference + "; fiber volume from the declared frame"
    ft = DetLineMetric(ft_value, reference=ref)
    return TorsionResult(
        t_comb=t, harmonic_metric=harm, ft_metric=ft, acyclic=all(b == 0 for b in betti.values()),
        tcc=tcc, rank_tol=rank_tol, betti=betti, harmonic_bases=bases,
    )


def transport_reference_between_sprays(tcc_alpha, complex_, bundle, alpha, beta, refs):
    """Rewrite degree-wise reference rows from alpha-frames to beta-frames.

    The frame shift of cell c is the transport of the based loop
    beta_leg(c) . alpha_leg(c)^-1; each cell's k columns of the rows are
    multiplied on the right by its inverse.  Only the cells of degrees with
    reference rows are walked.
    """
    k, out = bundle.rank, {}
    for d, rows in refs.items():
        ids = tcc_alpha.cell_order.get(d, [])
        if rows is None or not len(ids):
            out[d] = rows
            continue
        mats = bundle.transports([g.steps for g in leg_shift_loops(alpha, beta, ids)])
        inv = np.linalg.inv(lx.scaled_to_float(*mats))
        rows = np.asarray(rows, dtype=float)
        cells = rows.reshape(len(rows), len(ids), 1, k)
        out[d] = np.matmul(cells, inv).reshape(rows.shape)
    return out


def ft_torsion_pair(complex_, bundle, alpha, beta, rank_tol=RANK_TOL):
    """ft_torsion under alpha and under beta, with one shared reference.

    alpha's deterministic kernel basis is the reference; it is transported to
    beta's frames for the second result.  Each spray is assembled once, and
    when beta equals alpha the first result serves both.
    """
    tcc_a = assemble(complex_, bundle, alpha)
    res_a = ft_torsion_of_tcc(tcc_a, rank_tol=rank_tol)
    if beta == alpha:
        return res_a, res_a
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
    nums, den = bundle.transports([loop.steps])
    return abs(float(lx.scaled_det((nums[0], den))))
