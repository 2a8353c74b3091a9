"""Flat bundles as edge-wise invertible matrices.

Transport along a walk is the ordered left-to-right product of edge matrices
(inverses for reversed steps), so transport(p * q) = transport(p) @ transport(q).

Each edge matrix is stored once, as a scaled pair (see ``linalg_exact``):
(integer numerators, denominator) for an exact bundle, whose products,
inverses and determinants stay exact, and (float array, 1) for a float one,
which is compared with a relative flatness tolerance.  The same dict caches
each inverse on first use.  ``FlatBundle.transports`` is the one transport
kernel: it takes many walks at once, one stacked product per depth of their
prefix trie, and the inverses of the first of them from the same trie.
``edge_matrices``, ``matrix`` and ``transport`` are views as Fraction rows or
float arrays.  ``_flatness_report`` reads flatness off holonomies, whether
``check_flatness`` walks them alone or ``torsion_engine.assemble`` takes them
in its one ``transports`` call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import linalg_exact as lx
from .errors import MissingEdgeMatrixError, NotFlatError, OpenPathError, UnsupportedStructureError

EPS_FLAT = 1e-9  # relative flatness / comparison tolerance in float mode


def _is_pair(m):
    return isinstance(m, tuple) and len(m) == 2 and isinstance(m[1], int)


def _is_exact(m):
    if _is_pair(m):
        return m[0].dtype.kind != "f"
    return not isinstance(m, np.ndarray) and all(
        isinstance(x, (int, Fraction, str)) and not isinstance(x, bool) for row in m for x in row
    )


def _to_pair(m, exact):
    """Rows, a float array or a scaled pair, as a scaled pair in the bundle's field."""
    if not _is_pair(m):
        if exact and not isinstance(m, np.ndarray):
            return lx.scaled(lx.fmat(m))
        if not isinstance(m, np.ndarray):
            m = [[float(Fraction(x)) if isinstance(x, str) else float(x) for x in row] for row in m]
        m = (np.array(m, dtype=float), 1)
    if m[0].dtype.kind != "f":
        return m if exact else (lx.scaled_to_float(*m), 1)
    if exact:
        raise TypeError("exact bundle cannot take float arrays")
    return m


def _not_invertible(ms, k):
    """Why each scaled pair in ms is not a finite invertible k x k matrix; None where it is.

    Exact matrices by their exact determinants, each distinct object once;
    float ones together, by one stacked finiteness and Hadamard test.
    """
    why, floats, dets = [None] * len(ms), [], {}
    for i, m in enumerate(ms):
        if m[0].shape != (k, k):
            why[i] = f"matrix is not {k} x {k}"
        elif m[0].dtype.kind == "f":
            floats.append(i)
        else:
            if id(m) not in dets:
                dets[id(m)] = lx.scaled_det(m)
            why[i] = "matrix is singular" if dets[id(m)] == 0 else None
    if floats:
        stack = np.stack([ms[i][0] for i in floats])
        finite = np.isfinite(stack).all(axis=(1, 2))
        singular = np.zeros(len(floats), dtype=bool)
        singular[finite] = lx.singular_float(stack[finite])
        for i, ok, sing in zip(floats, finite, singular):
            why[i] = "matrix entries must be finite" if not ok else "matrix is singular" if sing else None
    return why


class FlatBundle:
    """Rank-k local system: an invertible k x k matrix per oriented 1-cell.

    ``edge_matrices`` values may be rows, float arrays or scaled pairs.
    """

    def __init__(self, rank, edge_matrices, exact=None, reference_basis=None):
        self.rank = int(rank)
        if exact is None:
            exact = all(_is_exact(m) for m in edge_matrices.values())
        self.exact = bool(exact)
        # (edge, +1) -> scaled matrix; (edge, -1) -> its inverse, filled on first use
        self._pairs = {(e, 1): _to_pair(m, self.exact) for e, m in edge_matrices.items()}
        for m in self._pairs.values():
            m[0].flags.writeable = False  # pairs may be shared, so views are read-only
        for (e, _), why in zip(self._pairs, _not_invertible(list(self._pairs.values()), self.rank)):
            if why:
                raise ValueError(f"edge {e!r}: {why}")
        rb = reference_basis
        if rb is not None:
            try:
                rb = _to_pair(rb, _is_exact(rb))
            except (TypeError, ValueError):
                raise ValueError(f"reference_basis: expected {self.rank} x {self.rank} rows") from None
            if why := _not_invertible([rb], self.rank)[0]:
                raise ValueError(f"reference_basis: {why}")
            rb = lx.unscaled(rb)
        self.reference_basis = rb
        # (complex, spray, twisted complex) of the last torsion_engine.assemble
        self.last_assembly = None

    def _edge_pairs(self):
        return {e: m for (e, d), m in self._pairs.items() if d == 1}

    @property
    def edge_matrices(self):
        """{edge: matrix} as Fraction rows if exact, float arrays if not; built on each read."""
        return {e: lx.unscaled(m) for e, m in self._edge_pairs().items()}

    def matrix(self, edge, direction=1):
        return lx.unscaled(self.scaled(edge, direction))

    def scaled(self, edge, direction=1):
        """matrix(edge, direction) as (numerators, denominator); (float array, 1) if float."""
        key = (edge, 1 if direction == 1 else -1)
        if key not in self._pairs:
            if (edge, 1) not in self._pairs:
                raise MissingEdgeMatrixError(f"no matrix assigned to edge {edge!r}")
            self._pairs[key] = inv = lx.scaled_inverse(self._pairs[edge, 1])
            inv[0].flags.writeable = False
        return self._pairs[key]

    def _seed_inverses(self, inverses):
        """Cache {edge: scaled inverse} known to the caller, so ``scaled`` need not eliminate;
        each must be the read-only exact (or float) inverse of the edge's matrix."""
        self._pairs.update(((e, -1), m) for e, m in inverses.items())

    def transports(self, paths, inverses=None):
        """Scaled transports along step tuples: one stack (nums[n, k, k], den), row i for paths[i].

        With ``inverses=m`` it returns (that stack, the stack of the inverse
        transports of paths[:m]).  The distinct paths form a trie of shared
        prefixes, built in path order, and each depth of it is one stacked
        product prefix . matrix(s).  The nodes of the first m paths come first
        at every depth, so their inverses, matrix(s reversed) . prefix from the
        cached edge inverses, are one more product per depth over a slice of
        the same level.  These are the products of a walk taken one step at a
        time from I, so float rows are bit for bit the same.
        """
        distinct = {}  # path -> its index among the distinct paths
        of_path = [distinct.setdefault(p, len(distinct)) for p in paths]
        # the number of distinct paths among paths[:inverses]; they are the first ones
        first = len(distinct) if inverses is None else max(of_path[:inverses], default=-1) + 1
        node, levels, ends = {}, [], []  # levels[t]: parents and steps of the nodes at depth t + 1
        cut = None  # cut[t]: how many nodes of levels[t] the first paths made
        for steps in distinct:
            if len(ends) == first:
                cut = [len(taken) for _, taken in levels]
            at = 0  # the prefix so far, as an index among the nodes of its depth
            for depth, step in enumerate(steps):
                nxt = node.get((depth, at, step))
                if nxt is None:
                    if depth == len(levels):
                        levels.append(([], []))
                    nxt = node[depth, at, step] = len(levels[depth][1])
                    levels[depth][0].append(at)
                    levels[depth][1].append(step)
                at = nxt
            ends.append((len(steps), at))
        fwd = self._stack(self._products(levels, None), ends, of_path)
        if inverses is None:
            return fwd
        if cut is None:  # every distinct path is among the first
            cut = [len(taken) for _, taken in levels]
        return fwd, self._stack(self._products(levels, cut), ends[:first], of_path[:inverses])

    def _products(self, levels, cut):
        """prods[t]: the stack of the trie's nodes at depth t (t >= 1), forward if cut is None,
        else the inverses of the first cut[t - 1] nodes of each depth."""
        prods = [None]
        for t, (parents, taken) in enumerate(levels):
            if cut is not None:
                if t == len(cut) or not cut[t]:
                    break
                parents, taken = parents[: cut[t]], taken[: cut[t]]
            mats = [self.scaled(e, d if cut is None else -d) for e, d in taken]
            step = (mats[0][0][None], mats[0][1]) if len(mats) == 1 else lx.scaled_concat(
                [(m[None], q) for m, q in mats])
            if not t:  # I . M is M, with a zero's sign cleared as + 0.0 clears it
                prods.append(step if self.exact else (step[0] + 0.0, 1))
                continue
            nums, den = prods[-1]
            prev = (nums if len(nums) == 1 else nums[parents], den)  # one matrix broadcasts
            prods.append(lx.scaled_matmul(prev, step) if cut is None else lx.scaled_matmul(step, prev))
        return prods

    def _stack(self, prods, ends, of_path):
        """The rows of ``of_path`` (indices into ends, the (depth, node) of each distinct path),
        as one stack over the levels of prods that hold an end."""
        depths = sorted({d for d, _ in ends}) or [0]
        if not depths[0]:
            prods[0] = (np.eye(self.rank, dtype=np.int64 if self.exact else float)[None], 1)
        sizes = (len(prods[d][0]) for d in depths)
        start = dict(zip(depths, itertools.accumulate(sizes, initial=0)))
        nums, den = lx.scaled_concat([prods[d] for d in depths])
        at = [start[d] + i for d, i in ends]
        return nums[[at[i] for i in of_path]], den

    def with_reference_basis(self, r):
        return FlatBundle(self.rank, self._edge_pairs(), self.exact, r)

    def as_float(self):
        if not self.exact:
            return self
        return FlatBundle(
            self.rank, self._edge_pairs(), exact=False, reference_basis=self.reference_basis
        )


@dataclass
class FlatnessReport:
    deviations: dict = field(default_factory=dict)  # 2-cell id -> deviation
    mode: str = "float"

    @property
    def ok(self):
        return not self.failing_cells()

    def failing_cells(self):
        bound = 0 if self.mode == "exact" else EPS_FLAT
        # "not <=" so that a nan deviation fails
        return sorted((c for c, d in self.deviations.items() if not d <= bound), key=str)


def transport(bundle, path):
    """Ordered product of edge matrices along a walk; empty walk gives I."""
    nums, den = bundle.transports([path.steps])
    return lx.unscaled((nums[0], den))


def check_flatness(complex_, bundle):
    """Per-2-cell deviation of the attaching-walk transport from the identity."""
    complex_.require_valid()
    cells = [c.id for c in complex_.cells_of_dim(2)]
    hol = bundle.transports([complex_.attaching_walk(c).steps for c in cells]) if cells else None
    return _flatness_report(bundle, cells, hol)


def _flatness_report(bundle, cells, hol):
    """FlatnessReport of the 2-cells from their holonomies, a scaled stack with a row per cell.

    Exact: den times the largest |hol - I| entry, then one division that
    rounds as float(Fraction).
    """
    report = FlatnessReport(mode="exact" if bundle.exact else "float")
    if not cells:
        return report
    hol, den = hol
    if bundle.exact:
        big = hol.dtype == object or lx._peak(hol) + den >= 2**63
        dev = np.abs(hol - den * np.eye(bundle.rank, dtype=object if big else np.int64))
        devs = [d and d / den for d in dev.max(axis=(1, 2), initial=0).tolist()]
    else:
        devs = np.abs(hol - np.eye(bundle.rank)).max(axis=(1, 2), initial=0.0).tolist()
    report.deviations.update(zip(cells, devs))
    return report


def _require_ok(report):
    if not report.ok:
        raise NotFlatError(f"bundle is not flat around 2-cells {report.failing_cells()}")


def _vouched(bundle, complex_, spray):
    """(spray is valid, bundle is flat) as far as ``bundle.last_assembly`` vouches for them.

    An assembly of the same complex (by identity) vouches for flatness, and
    for the spray too if its spray is equal.  All three are immutable.
    """
    last = bundle.last_assembly
    flat = last is not None and last[0] is complex_
    return flat and last[1] == spray, flat


def _flatness_walks(complex_):
    """(2-cells, far-anchored 1-cells, walks) whose transports decide ``_require_flat_rows``:
    each 2-cell's attaching walk, then for each far-anchored 1-cell its tail connector
    followed by the edge, and its head connector."""
    cells = [c.id for c in complex_.cells_of_dim(2)]
    far = complex_.far_anchored_edges()
    conn = [{r.coeff: r.path.steps for r in complex_.records_of(e)} for e in far]
    walks = [complex_.attaching_walk(c).steps for c in cells]
    walks += [w for e, c in zip(far, conn) for w in (c[-1] + ((e, 1),), c[1])]
    return cells, far, walks


def _require_flat_rows(bundle, cells, far, rows):
    """NotFlatError unless the bundle is flat around every 2-cell, then UnsupportedStructureError
    for the first far-anchored 1-cell whose connectors disagree with its edge; rows are the
    transports of ``_flatness_walks``' walks, in order.

    A 1-cell anchored off its endpoints enters the twisted boundary only through its two
    connectors; its subdivision follows the tail connector and then the edge itself.  Both
    read the same bundle only if the head connector's transport is the tail connector's
    times the edge's, so a 1-cell that breaks this is refused (``validate`` lists them).
    """
    nums, den = rows
    _require_ok(_flatness_report(bundle, cells, (nums[: len(cells)], den)))
    pairs = nums[len(cells) :]
    for e, via_tail, head in zip(far, pairs[::2], pairs[1::2]):
        # one denominator for the whole stack: exact matrices are equal if their numerators are
        same = np.array_equal(via_tail, head) if bundle.exact else np.allclose(
            via_tail, head, rtol=0.0, atol=EPS_FLAT * max(np.abs(head).max(), 1.0))
        if not same:
            raise UnsupportedStructureError(
                f"1-cell {e!r} is anchored off its endpoints, and its head connector's transport "
                "is not its tail connector's times the edge's"
            )


def kt_evaluate(bundle, loop):
    """log |det transport(loop)| for a closed walk."""
    if not loop.is_closed:
        raise OpenPathError(f"path {loop.src!r} -> {loop.dst!r} is not closed")
    nums, den = bundle.transports([loop.steps])
    d = lx.scaled_det((nums[0], den))
    if bundle.exact:
        if d == 0:
            raise ValueError("singular transport")
        return math.log(abs(d.numerator)) - math.log(d.denominator)
    return math.log(abs(d))


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
    _require_ok(check_flatness(complex_, bundle))
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
    verts = [v.id for v in complex_.cells_of_dim(0)]
    nums, den = bundle.transports([complex_.tree_path(v).steps for v in verts])
    gauges = {v: (g, den) for v, g in zip(verts, nums)}
    new = {}
    for e in complex_.cells_of_dim(1):
        t, h = complex_.edge_endpoints(e.id)
        m = lx.scaled_matmul(gauges[t], bundle.scaled(e.id))
        new[e.id] = lx.scaled_matmul(m, lx.scaled_inverse(gauges[h]))
    return (
        FlatBundle(bundle.rank, new, bundle.exact, bundle.reference_basis),
        {v: lx.unscaled(g) for v, g in gauges.items()},
    )
