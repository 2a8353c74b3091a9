"""Built-in complexes, default bundles, and random flat-bundle generators.

Every item returns a validated (complex, bundle, spray) triple; bundles are
flat by construction and sprays are canonical.  Random bundles are produced
per complex from a word-solving holonomy family conjugated by a random
rational gauge, so they are flat and exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg_exact as lx
from .complex_core import (
    Cell,
    ComplexDescription,
    EdgePath,
    Incidence,
    cw_complex_from_words,
    point_complex,
    simplicial_complex,
)
from .errors import TorsionLabError, UnknownNameError
from .euler_struct import canonical_spray
from .flat_bundle import FlatBundle


@dataclass
class CorpusItem:
    name: str
    complex: ComplexDescription
    bundle: FlatBundle
    spray: object


def build_circle_1cell():
    return cw_complex_from_words("circle-1cell", ["v"], {"e": ("v", "v")}, {}, "v")


def build_circle_2vertex():
    return cw_complex_from_words(
        "circle-2vertex", ["v1", "v2"], {"e1": ("v1", "v2"), "e2": ("v2", "v1")}, {}, "v1"
    )


def build_torus():
    return cw_complex_from_words(
        "torus",
        ["v"],
        {"a": ("v", "v"), "b": ("v", "v")},
        {"F": [("a", 1), ("b", 1), ("a", -1), ("b", -1)]},
        "v",
    )


def build_klein_bottle():
    return cw_complex_from_words(
        "klein",
        ["v"],
        {"a": ("v", "v"), "b": ("v", "v")},
        {"F": [("a", 1), ("b", 1), ("a", 1), ("b", -1)]},
        "v",
    )


def build_projective_plane():
    return cw_complex_from_words(
        "rp2", ["v"], {"a": ("v", "v")}, {"F": [("a", 1), ("a", 1)]}, "v"
    )


def build_sphere_boundary():
    return simplicial_complex(
        "sphere", [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)], base_vertex=1
    )


def build_tetrahedron_solid():
    return simplicial_complex("tetra-solid", [(1, 2, 3, 4)], base_vertex=1)


def inverse_mod(q, p):
    for i in range(1, p):
        if (q * i) % p == 1:
            return i
    raise ValueError(f"{q} is not invertible mod {p}")


def build_lens(p, q):
    """Quotient 3-manifold with one cell per dimension 0..3.

    The chain data is the classical loop-power pattern: the 2-cell crosses
    the 1-cell p times with unit prefix powers, and the 3-cell hits the
    2-cell with powers q' and 0 where q q' = 1 mod p.
    """
    qp = inverse_mod(q, p)

    def loop(n):
        return EdgePath(tuple([("e", 1)] * n), "v", "v")

    cells = [Cell("v", 0, "v"), Cell("e", 1, "v"), Cell("F", 2, "v"), Cell("C", 3, "v")]
    inc = [Incidence("e", "v", 1, loop(1)), Incidence("e", "v", -1, loop(0))]
    for j in range(p):
        inc.append(Incidence("F", "e", 1, loop(j)))
    inc.append(Incidence("C", "F", 1, loop(qp)))
    inc.append(Incidence("C", "F", -1, loop(0)))
    return ComplexDescription(cells, inc, "v", f"lens-{p}-{q}")


def rotation_matrix(angle):
    return np.array(
        [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
    )


def lens_rotation_bundle(p, q=1, turns=1):
    """Rank-2 rotation holonomy by 2 pi turns / p on the lens 1-cell."""
    return FlatBundle(2, {"e": rotation_matrix(2 * math.pi * turns / p)})


def companion_matrix_cyclotomic(p):
    """Rational matrix of multiplicative order p (companion of the p-th
    cyclotomic polynomial, p prime)."""
    k = p - 1
    m = [[Fraction(0)] * k for _ in range(k)]
    for i in range(1, k):
        m[i][i - 1] = Fraction(1)
    for i in range(k):
        m[i][k - 1] = Fraction(-1)
    return m


_BUILDERS = {
    "point": lambda: point_complex(),
    "circle-1cell": build_circle_1cell,
    "circle-2vertex": build_circle_2vertex,
    "torus": build_torus,
    "klein": build_klein_bottle,
    "rp2": build_projective_plane,
    "sphere": build_sphere_boundary,
    "tetra-solid": build_tetrahedron_solid,
    "lens-3-1": lambda: build_lens(3, 1),
    "lens-5-1": lambda: build_lens(5, 1),
    "lens-5-2": lambda: build_lens(5, 2),
    "lens-7-1": lambda: build_lens(7, 1),
    "lens-7-2": lambda: build_lens(7, 2),
}


def _default_bundle(name, cx):
    if name == "circle-1cell":
        return FlatBundle(1, {"e": [[3]]})
    if name == "circle-2vertex":
        return FlatBundle(1, {"e1": [[3]], "e2": [[1]]})
    if name in ("torus", "klein"):
        return FlatBundle(1, {"a": [[1]], "b": [[1]]})
    if name == "rp2":
        return FlatBundle(1, {"a": [[-1]]})
    if name.startswith("lens-"):
        _, p, q = name.split("-")
        return lens_rotation_bundle(int(p), int(q))
    # trivial rank-1 bundle on every 1-cell
    return FlatBundle(1, {c.id: [[1]] for c in cx.cells_of_dim(1)})


def corpus_list():
    return sorted(_BUILDERS)


def corpus_get(name):
    if name not in _BUILDERS:
        raise UnknownNameError(f"unknown corpus item {name!r}; known: {', '.join(corpus_list())}")
    cx = _BUILDERS[name]()
    cx.require_valid()
    bundle = _default_bundle(name, cx)
    return CorpusItem(name=name, complex=cx, bundle=bundle, spray=canonical_spray(cx))


# ---------------------------------------------------------------------------
# random flat bundles (exact rational, flat by construction)


def _rand_frac(rng, lo=-3, hi=3, den=(1, 2, 3)):
    return Fraction(int(rng.integers(lo, hi + 1)), int(rng.choice(den)))


def random_invertible(rng, k, max_tries=100):
    for _ in range(max_tries):
        m = [[_rand_frac(rng) for _ in range(k)] for _ in range(k)]
        if lx.scaled_det(lx.scaled(m)) != 0:
            return m
    raise TorsionLabError("could not draw an invertible rational matrix")


def _holonomy_family(name, rng, rank):
    """Edge -> scaled matrix solving the attaching relations of the named complex."""
    if name.startswith("lens-"):
        p = int(name.split("-")[1])
        base = lx.scaled(companion_matrix_cyclotomic(p))
        m = (np.eye(p - 1, dtype=np.int64), 1)
        for _ in range(int(rng.integers(1, p))):
            m = lx.scaled_matmul(m, base)
        return {"e": m}
    if name in ("sphere", "tetra-solid"):
        return None  # simply connected: holonomy is trivial, gauge supplies noise
    return {e: lx.scaled(m) for e, m in _holonomy_rows(name, rng, rank).items()}


def _holonomy_rows(name, rng, rank):
    """Edge -> Fraction rows solving the attaching relations of a non-lens item."""
    if name in ("circle-1cell",):
        return {"e": random_invertible(rng, rank)}
    if name == "circle-2vertex":
        return {"e1": random_invertible(rng, rank), "e2": random_invertible(rng, rank)}
    if name == "point":
        return {}
    if name == "torus":
        if rank == 1:
            return {"a": random_invertible(rng, 1), "b": random_invertible(rng, 1)}
        if rank == 2:
            # commuting rotation-scaling pair x I + y J
            def rot_scale():
                while True:
                    x, y = _rand_frac(rng), _rand_frac(rng)
                    if x * x + y * y != 0:
                        return [[x, -y], [y, x]]

            return {"a": rot_scale(), "b": rot_scale()}
        diag = lambda vals: [
            [vals[i] if i == j else Fraction(0) for j in range(rank)] for i in range(rank)
        ]
        nz = lambda: [
            v if v != 0 else Fraction(1)
            for v in (_rand_frac(rng) for _ in range(rank))
        ]
        return {"a": diag(nz()), "b": diag(nz())}
    if name == "klein":
        # relation A B A = B: A = diag(1, -1, 1, ...), B diagonal
        if rank == 1:
            sign = Fraction(int(rng.choice([-1, 1])))
            b = _rand_frac(rng)
            return {"a": [[sign]], "b": [[b if b != 0 else Fraction(1)]]}
        a = [
            [Fraction(0) if i != j else Fraction((-1) ** i) for j in range(rank)]
            for i in range(rank)
        ]
        vals = [v if v != 0 else Fraction(1) for v in (_rand_frac(rng) for _ in range(rank))]
        b = [
            [vals[i] if i == j else Fraction(0) for j in range(rank)] for i in range(rank)
        ]
        return {"a": a, "b": b}
    if name == "rp2":
        # involution A^2 = I
        if rank == 1:
            return {"a": [[Fraction(int(rng.choice([-1, 1])))]]}
        p = _rand_frac(rng)
        q = _rand_frac(rng)
        if q == 0:
            q = Fraction(1)
        r = (1 - p * p) / q
        invol = [[p, q], [r, -p]]
        if rank == 2:
            return {"a": invol}
        out = [[Fraction(int(i == j)) for j in range(rank)] for i in range(rank)]
        out[0][0], out[0][1], out[1][0], out[1][1] = p, q, r, -p
        return {"a": out}
    raise UnknownNameError(f"no holonomy family for corpus item {name!r}")


def random_flat_bundle(name, cx, rng, rank=None):
    """Random exact flat bundle on a corpus complex.

    A relation-solving holonomy assignment on the edges is composed with a
    random rational gauge, so flatness is exact by construction.
    """
    fam = _holonomy_family(name, rng, rank or 1)
    if fam is None:
        k = rank or int(rng.choice([1, 2]))
        fam = {}
    else:
        k = len(next(iter(fam.values()))[0]) if fam else (rank or 1)
    gauges = {v.id: lx.scaled(random_invertible(rng, k)) for v in cx.cells_of_dim(0)}
    gauges[cx.base_vertex] = (np.eye(k, dtype=np.int64), 1)
    mats = {}
    for e in cx.cells_of_dim(1):
        t, h = cx.edge_endpoints(e.id)
        m = lx.scaled_inverse(gauges[t])
        if e.id in fam:
            m = lx.scaled_matmul(m, fam[e.id])
        mats[e.id] = lx.scaled_matmul(m, gauges[h])
    return FlatBundle(k, mats)
