"""Flat bundles as edge-wise invertible matrices.

Transport along a walk is the ordered left-to-right product of edge matrices
(inverses for reversed steps), so transport(p * q) = transport(p) @ transport(q).
Matrices with exact rational entries are kept as Fractions and all products,
inverses and determinants stay exact; float entries fall back to IEEE doubles
with a relative flatness tolerance.

Walks for the torsion complex and the flatness check run on scaled matrices
(numerator ndarray, denominator): each edge matrix and inverse is converted
once, on first use, and every product is one numpy call (see
``linalg_exact.scaled_matmul``).  Float bundles use the same walks with
denominator 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import linalg_exact as lx
from .errors import MissingEdgeMatrixError, NotFlatError, OpenPathError

EPS_FLAT = 1e-9  # relative flatness / comparison tolerance in float mode


def _coerce_matrix(m, exact):
    if exact:
        if isinstance(m, np.ndarray):
            raise TypeError("exact bundle cannot take float arrays")
        return lx.fmat(m)
    if isinstance(m, np.ndarray):
        return np.array(m, dtype=float)
    rows = []
    for row in m:
        rows.append([float(Fraction(x)) if isinstance(x, str) else float(x) for x in row])
    return np.array(rows, dtype=float)


def _rows_are_exact(m):
    if isinstance(m, np.ndarray):
        return False
    return all(lx.is_exact_entry(x) for row in m for x in row)


class FlatBundle:
    """Rank-k local system: an invertible k x k matrix per oriented 1-cell."""

    def __init__(self, rank, edge_matrices, exact=None, reference_basis=None):
        self.rank = int(rank)
        if exact is None:
            exact = all(_rows_are_exact(m) for m in edge_matrices.values())
        self.exact = bool(exact)
        self.edge_matrices = {
            e: _coerce_matrix(m, self.exact) for e, m in edge_matrices.items()
        }
        for e, m in self.edge_matrices.items():
            r = len(m) if self.exact else m.shape[0]
            c = len(m[0]) if self.exact else m.shape[1]
            if (r, c) != (self.rank, self.rank):
                raise ValueError(f"edge {e!r}: matrix is not {self.rank} x {self.rank}")
            # relative to Hadamard's bound |det m| <= prod of row norms: scale-free
            tiny = 0 if self.exact else 1e-14 * np.prod(np.linalg.norm(m, axis=1))
            if abs(self.det(m)) <= tiny:
                raise ValueError(f"edge {e!r}: matrix is singular")
        if reference_basis is None:
            self.reference_basis = None
        else:
            self.reference_basis = _coerce_matrix(
                reference_basis, _rows_are_exact(reference_basis)
            )
        self._inv_cache = {}
        self._scaled_cache = {}

    def identity(self):
        return lx.identity(self.rank) if self.exact else np.eye(self.rank)

    def matrix(self, edge, direction=1):
        if edge not in self.edge_matrices:
            raise MissingEdgeMatrixError(f"no matrix assigned to edge {edge!r}")
        m = self.edge_matrices[edge]
        if direction == 1:
            return m
        if edge not in self._inv_cache:
            self._inv_cache[edge] = self.inv(m)
        return self._inv_cache[edge]

    def scaled(self, edge, direction=1):
        """matrix(edge, direction) as (numerators, denominator); (float array, 1) if float."""
        key = (edge, direction)
        if key not in self._scaled_cache:
            if not self.exact:
                self._scaled_cache[key] = (self.matrix(edge, direction), 1)
            elif direction == 1:
                self._scaled_cache[key] = lx.scaled(self.matrix(edge))
            else:
                self._scaled_cache[key] = lx.scaled_inverse(self.scaled(edge))
        return self._scaled_cache[key]

    def walk(self, steps, walks, inverse=False):
        """Scaled transport along ``steps``, or its inverse, extending the longest cached prefix.

        ``walks`` maps step tuples to scaled transports (their inverses if
        ``inverse``) and gains every prefix computed here; start it empty and
        keep one dict per direction.  Forward products run left to right from
        the identity, so a float walk is the same products wherever its
        prefixes were computed; an inverse takes products only, inv(p.s) =
        matrix(s reversed) . inv(p), from the cached edge inverses.
        """
        if () not in walks:
            walks[()] = (np.eye(self.rank, dtype=np.int64 if self.exact else float), 1)
        n = len(steps)
        while steps[:n] not in walks:
            n -= 1
        m = walks[steps[:n]]
        for i in range(n, len(steps)):
            e, d = steps[i]
            if inverse:
                m = lx.scaled_matmul(self.scaled(e, -d), m)
            else:
                m = lx.scaled_matmul(m, self.scaled(e, d))
            walks[steps[: i + 1]] = m
        return m

    def mul(self, a, b):
        return lx.matmul(a, b) if self.exact else a @ b

    def inv(self, m):
        return lx.inverse(m) if self.exact else np.linalg.inv(m)

    def det(self, m):
        return lx.det(m) if self.exact else float(np.linalg.det(m))

    def with_reference_basis(self, r):
        return FlatBundle(self.rank, self.edge_matrices, self.exact, r)

    def reference_basis_float(self):
        if self.reference_basis is None:
            return np.eye(self.rank)
        if isinstance(self.reference_basis, np.ndarray):
            return self.reference_basis
        return lx.to_float(self.reference_basis)

    def as_float(self):
        if not self.exact:
            return self
        mats = {e: lx.to_float(m) for e, m in self.edge_matrices.items()}
        return FlatBundle(self.rank, mats, exact=False, reference_basis=self.reference_basis)


@dataclass
class FlatnessReport:
    deviations: dict = field(default_factory=dict)  # 2-cell id -> deviation
    mode: str = "float"

    @property
    def ok(self):
        if self.mode == "exact":
            return all(d == 0 for d in self.deviations.values())
        return all(d <= EPS_FLAT for d in self.deviations.values())

    def failing_cells(self):
        bound = 0 if self.mode == "exact" else EPS_FLAT
        return sorted(
            (c for c, d in self.deviations.items() if d > bound), key=str
        )


def transport(bundle, path):
    """Ordered product of edge matrices along a walk; empty walk gives I."""
    m, den = bundle.walk(path.steps, {})
    return [[Fraction(v, den) for v in row] for row in m.tolist()] if bundle.exact else m


def check_flatness(complex_, bundle):
    """Per-2-cell deviation of the attaching-walk transport from the identity."""
    complex_.require_valid()
    report = FlatnessReport(mode="exact" if bundle.exact else "float")
    walks = {}
    for cell in complex_.cells_of_dim(2):
        hol, den = bundle.walk(complex_.attaching_walk(cell.id).steps, walks)
        if bundle.exact:
            # den times the largest |hol - I| entry; the one division rounds as float(Fraction)
            rows = enumerate(hol.tolist())
            diff = [abs(v - den * (i == j)) for i, r in rows for j, v in enumerate(r)]
            dev = max(diff, default=0)
            dev = dev and dev / den
        else:
            dev = float(np.max(np.abs(hol - np.eye(bundle.rank))))
        report.deviations[cell.id] = dev
    return report


def require_flat(complex_, bundle):
    rep = check_flatness(complex_, bundle)
    if not rep.ok:
        raise NotFlatError(f"bundle is not flat around 2-cells {rep.failing_cells()}")
    return rep


def _log_abs_det(bundle, m):
    d = bundle.det(m)
    if bundle.exact:
        if d == 0:
            raise ValueError("singular transport")
        return math.log(abs(d.numerator)) - math.log(d.denominator)
    return math.log(abs(d))


def kt_evaluate(bundle, loop):
    """log |det transport(loop)| for a closed walk."""
    if not loop.is_closed:
        raise OpenPathError(f"path {loop.src!r} -> {loop.dst!r} is not closed")
    return _log_abs_det(bundle, transport(bundle, loop))


@dataclass(frozen=True)
class KTClass:
    """Volume-distortion cohomology class, tabulated on the SNF basis of H1."""

    values: tuple  # one float per H1 coordinate slot
    torsion: tuple  # torsion coefficients of the slots that are torsion

    def evaluate(self, coords):
        return sum(c * v for c, v in zip(coords, self.values))

    @property
    def is_zero(self):
        return all(abs(v) <= 1e-12 for v in self.values)


def kt_class(complex_, bundle):
    """Evaluate the volume-distortion class on the SNF generators of H1."""
    require_flat(complex_, bundle)
    lat = complex_.h1_lattice()
    vals = tuple(kt_evaluate(bundle, loop) for loop in lat.generator_loops())
    return KTClass(vals, tuple(lat.torsion))


def gauge_normalize(complex_, bundle):
    """Gauge in which every spanning-tree edge carries the identity matrix.

    Loop transports at the base vertex are unchanged, so every torsion
    quantity is too.  Returns (bundle', gauges) with gauges[v] the frame
    change at vertex v.
    """
    complex_.require_valid()
    gauges = {}
    for v in complex_.cells_of_dim(0):
        gauges[v.id] = transport(bundle, complex_.tree_path(v.id))
    new = {}
    for e in complex_.cells_of_dim(1):
        t, h = complex_.edge_endpoints(e.id)
        new[e.id] = bundle.mul(bundle.mul(gauges[t], bundle.matrix(e.id)), bundle.inv(gauges[h]))
    return (
        FlatBundle(bundle.rank, new, bundle.exact, bundle.reference_basis),
        gauges,
    )
