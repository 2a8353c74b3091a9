"""Named invariance suites over the built-in corpus.

Each suite executes a fixed list of properties; expected values come from
closed-form oracles computed at run time or from exact-mode recomputation,
never from frozen constants (the one pinned constant is the sign exponent of
the Euler action).  Reports are deterministic and byte-identical across runs
of the same version and mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__ as _version
from . import linalg_exact as lx
from .analytic_model import CircleModel, analytic_torsion_circle, zeta_det_laplacian
from .barycentric import barycentric_subdivide
from .complex_core import EdgePath
from .corpus import (
    corpus_get,
    corpus_list,
    lens_rotation_bundle,
    random_flat_bundle,
    random_invertible,
)
from .errors import TorsionLabError, UnknownNameError
from .euler_struct import (
    act,
    canonical_spray,
    h1_class_for,
    loop_modify,
    spray_difference,
)
from .flat_bundle import (
    EPS_FLAT,
    FlatBundle,
    check_flatness,
    gauge_normalize,
    kt_class,
    kt_evaluate,
    transport,
)
from .serialization import canonical_dumps, content_digest
from .torsion_engine import (
    EULER_ACTION_EXPONENT,
    assemble,
    det_of_class,
    euler_action_on_torsion,
    ft_torsion,
    ft_torsion_pair,
    t_comb,
)


@dataclass
class PropertyRecord:
    id: str
    description: str
    inputs: str  # digest of the data the property ran on
    measured: object
    tolerance: object
    passed: bool
    repro: str

    def to_jsonable(self):
        return {
            "id": self.id,
            "description": self.description,
            "inputs": self.inputs,
            "measured": self.measured,
            "tolerance": self.tolerance,
            "passed": bool(self.passed),
            "repro": self.repro,
        }


@dataclass
class SuiteReport:
    suite: str
    records: list = field(default_factory=list)
    version: str = _version
    mode: str = "exact"  # every suite draws exact rational inputs

    @property
    def passed(self):
        return all(r.passed for r in self.records)

    def to_jsonable(self):
        return {
            "suite": self.suite,
            "version": self.version,
            "mode": self.mode,
            "passed": self.passed,
            "records": [r.to_jsonable() for r in self.records],
        }

    def dumps(self):
        return canonical_dumps(self.to_jsonable())


def _rec(report, pid, description, inputs, measured, tolerance, passed):
    report.records.append(
        PropertyRecord(
            id=pid,
            description=description,
            inputs=inputs,
            measured=measured,
            tolerance=tolerance,
            passed=bool(passed),
            repro=f"torsionlab suite run {report.suite}",
        )
    )


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _det_minus_identity(m):
    """det(m - I) of square Fraction rows, exactly."""
    nums, den = lx.scaled(m)
    return lx.scaled_det((nums - den * np.eye(len(m), dtype=nums.dtype), den))


# ---------------------------------------------------------------------------


def suite_flatness():
    rep = SuiteReport("flatness")
    # corpus bundles are flat
    worst = 0.0
    names = corpus_list()
    for name in names:
        item = corpus_get(name)
        fl = check_flatness(item.complex, item.bundle)
        worst = max(worst, max(fl.deviations.values(), default=0.0))
        if not fl.ok:
            break
    _rec(rep, "fl-corpus-flat", "every corpus bundle is flat",
         content_digest(names), worst, EPS_FLAT, worst <= EPS_FLAT)

    # a constructed non-flat bundle fails and names the 2-cell
    torus = corpus_get("torus").complex
    bad = FlatBundle(2, {"a": [[1, 1], [0, 1]], "b": [[1, 0], [1, 1]]})
    flbad = check_flatness(torus, bad)
    named = flbad.failing_cells()
    _rec(rep, "fl-nonflat-named", "non-commuting torus pair fails flatness at the named 2-cell",
         content_digest("torus-unipotent"), named, ["F"], named == ["F"])

    # transport functoriality on random composable paths
    rng = np.random.default_rng(20240811)
    ok = True
    for name in ("torus", "klein", "circle-2vertex"):
        item = corpus_get(name)
        cx = item.complex
        bundle = random_flat_bundle(name, cx, rng, rank=2 if name != "circle-2vertex" else 1)
        lat = cx.h1_lattice()
        loops = [lat.representative_loop(c) for c in _coordinate_box(lat, 1)]
        nums, den = bundle.transports([p.steps for p in loops])
        for p, tp in zip(loops, nums):
            for q, tq in zip(loops, nums):
                lhs = transport(bundle, p.compose(q))
                ok = ok and lhs == lx.unscaled(lx.scaled_matmul((tp, den), (tq, den)))
    _rec(rep, "fb-functorial", "transport(p.q) = transport(p) transport(q), exactly in rational mode",
         content_digest("loops-box1"), ok, True, ok)

    # kt: detour insertion leaves evaluations unchanged
    item = corpus_get("torus")
    bundle = FlatBundle(1, {"a": [[2]], "b": [[3]]})
    cx = item.complex
    loop = EdgePath((("a", 1), ("b", 1)), "v", "v")
    detour = EdgePath((("a", 1), ("b", 1), ("b", -1), ("a", -1)), "v", "v")
    v1 = kt_evaluate(bundle, loop)
    v2 = kt_evaluate(bundle, detour.compose(loop))
    _rec(rep, "fb-kt-detour", "kt evaluation is unchanged by a contractible detour",
         content_digest("torus-2-3"), _rel(v1, v2), EPS_FLAT, _rel(v1, v2) <= EPS_FLAT)

    # kt: equal homology classes from exhaustive small loops agree
    ok = True
    for name in ("torus", "klein"):
        cx = corpus_get(name).complex
        bundle = (
            FlatBundle(1, {"a": [[2]], "b": [[3]]})
            if name == "torus"
            else FlatBundle(1, {"a": [[-1]], "b": [[5]]})
        )
        lat = cx.h1_lattice()
        seen = {}
        for word in _small_words(("a", "b"), 4):
            loop = EdgePath(tuple(word), "v", "v")
            cls = lat.class_of_loop(loop)
            val = kt_evaluate(bundle, loop)
            if cls in seen and abs(seen[cls] - val) > EPS_FLAT:
                ok = False
            seen.setdefault(cls, val)
    _rec(rep, "fb-kt-homology", "kt evaluation depends only on the homology class (loop enumeration)",
         content_digest("words<=4"), ok, True, ok)

    # kt class vanishes when every |det| = 1, and on torsion classes
    rot = lens_rotation_bundle(5)
    lens = corpus_get("lens-5-1").complex
    kc = kt_class(lens, rot)
    _rec(rep, "fb-kt-unimodular", "volume-preserving bundles have zero kt class (torsion class too)",
         content_digest("lens-5-1-rot"), list(kc.values), 1e-9, kc.is_zero)

    kk = kt_class(corpus_get("klein").complex, FlatBundle(1, {"a": [[-1]], "b": [[7]]}))
    torsion_slots = len(kk.torsion)
    torsion_vals = kk.values[:torsion_slots]
    okt = all(abs(v) <= EPS_FLAT for v in torsion_vals)
    _rec(rep, "fb-kt-torsion", "kt evaluations vanish on torsion H1 slots",
         content_digest("klein--1-7"), list(torsion_vals), EPS_FLAT, okt)
    return rep


def _small_words(letters, max_len):
    from itertools import product

    steps = [(e, 1) for e in letters] + [(e, -1) for e in letters]
    for n in range(1, max_len + 1):
        for combo in product(steps, repeat=n):
            yield combo


def _coordinate_box(lat, radius):
    from itertools import product

    ranges = []
    for c in lat.torsion:
        ranges.append(range(0, c))
    for _ in range(lat.rank):
        ranges.append(range(-radius, radius + 1))
    if not ranges:
        return [()]
    return list(product(*ranges))


# ---------------------------------------------------------------------------


def suite_euler_action():
    rep = SuiteReport("euler-action")
    names = ["circle-1cell", "torus", "klein"]
    box_ok, free_ok, coc_ok = True, True, True
    for name in names:
        cx = corpus_get(name).complex
        lat = cx.h1_lattice()
        alpha = canonical_spray(cx)
        box = _coordinate_box(lat, 3)
        for coords in box:
            u = h1_class_for(cx, coords)
            beta = act(cx, u, alpha)
            if spray_difference(cx, alpha, beta).coords != u.coords:
                box_ok = False
            if u.is_zero != spray_difference(cx, alpha, beta).is_zero:
                free_ok = False
        # action law on a few pairs
        for cu, cv in [((1,) * lat.n_coords, (1,) * lat.n_coords), ((2,) + (0,) * (lat.n_coords - 1), (0,) * (lat.n_coords - 1) + (1,))]:
            u, v = h1_class_for(cx, cu), h1_class_for(cx, cv)
            b1 = act(cx, v, alpha)
            b2 = act(cx, u, b1)
            b3 = act(cx, u + v, alpha)
            if not spray_difference(cx, b2, b3).is_zero:
                coc_ok = False
        # cocycle identity
        u, v = h1_class_for(cx, box[len(box) // 2]), h1_class_for(cx, box[-1])
        b1, b2 = act(cx, u, alpha), act(cx, v, alpha)
        lhs = spray_difference(cx, alpha, b1) + spray_difference(cx, b1, b2)
        if lhs.coords != spray_difference(cx, alpha, b2).coords:
            coc_ok = False
    _rec(rep, "es-free-transitive", "act is free and transitive over exhaustive coordinate boxes [-3,3]",
         content_digest(names), box_ok and free_ok, True, box_ok and free_ok)
    _rec(rep, "es-action-law", "act(0) is the identity and act(u, act(v, .)) matches act(u+v, .); cocycle identity exact",
         content_digest(names), coc_ok, True, coc_ok)

    # loop modification shifts the class by chi * [gamma]
    rng = np.random.default_rng(20240812)
    ok = True
    for name in ("circle-1cell", "torus", "klein", "rp2", "sphere"):
        cx = corpus_get(name).complex
        lat = cx.h1_lattice()
        chi = cx.euler_characteristic()
        alpha = canonical_spray(cx)
        loops = _random_loops(cx, rng, 20)
        for gamma in loops:
            shifted = loop_modify(cx, alpha, gamma)
            want = h1_class_for(cx, [chi * c for c in lat.class_of_loop(gamma)])
            got = spray_difference(cx, alpha, shifted)
            if got.coords != want.coords:
                ok = False
    _rec(rep, "es-loop-modify", "prepending a based loop to every leg shifts the class by chi * [gamma]",
         content_digest("loops-20"), ok, True, ok)

    # torsion value detects the Euler structure exactly through |det rho(u)|^s
    circ = corpus_get("circle-1cell").complex
    b2 = FlatBundle(1, {"e": [[2]]})
    alpha = canonical_spray(circ)
    ok = True
    for n in range(-3, 4):
        u = h1_class_for(circ, (n,))
        ratio = euler_action_on_torsion(circ, b2, alpha, u)
        want = det_of_class(circ, b2, u) ** EULER_ACTION_EXPONENT
        if _rel(ratio, want) > 1e-9:
            ok = False
        if (n == 0) != (abs(ratio - 1.0) <= 1e-9):
            ok = False
    _rec(rep, "es-ft-detects", "torsion ratio is 1 exactly for the zero class (volume-detecting bundle)",
         content_digest("circle-2"), ok, 1e-9, ok)
    return rep


def _random_loops(cx, rng, count):
    edges = [c.id for c in cx.cells_of_dim(1)]
    out = []
    if not edges:
        return [EdgePath((), cx.base_vertex, cx.base_vertex)] * count
    for _ in range(count):
        loop = EdgePath((), cx.base_vertex, cx.base_vertex)
        for _ in range(int(rng.integers(1, 4))):
            e = edges[int(rng.integers(0, len(edges)))]
            t, h = cx.edge_endpoints(e)
            # walk to the edge tail in the tree, cross it, walk back
            step = cx.tree_path(t).compose(EdgePath(((e, 1),), t, h)).compose(
                cx.tree_path(h).reverse()
            )
            loop = loop.compose(step)
        out.append(loop)
    return out


# ---------------------------------------------------------------------------


def suite_torsion_invariance(n_random=100):
    rep = SuiteReport("torsion-invariance")
    rng = np.random.default_rng(20240813)

    # exactness: integer boundary-of-boundary and twisted D D = 0, flatness 0
    names = corpus_list()
    ok_flat, ok_dd = True, True
    per_complex = max(1, n_random // len(names))
    for name in names:
        cx = corpus_get(name).complex
        cx.require_valid()  # includes integer dd = 0
        for _ in range(per_complex):
            bundle = random_flat_bundle(name, cx, rng)
            fl = check_flatness(cx, bundle)
            if not (fl.mode == "exact" and all(d == 0 for d in fl.deviations.values())):
                ok_flat = False
            try:
                assemble(cx, bundle, canonical_spray(cx))  # raises if D D != 0 exactly
            except TorsionLabError:
                ok_dd = False
    _rec(rep, "ti-exactness", f"{per_complex} random rational bundles per corpus complex: flatness deviation 0 and twisted D D = 0 exactly",
         content_digest([names, per_complex]), ok_flat and ok_dd, True, ok_flat and ok_dd)

    # dimension bookkeeping: sum (-1)^d dim C_d = k chi
    ok = True
    for name in ("torus", "lens-5-1", "sphere"):
        item = corpus_get(name)
        bundle = random_flat_bundle(name, item.complex, rng)
        tcc = assemble(item.complex, bundle, item.spray)
        total = sum((-1) ** d * n for d, n in tcc.dims.items())
        if total != bundle.rank * item.complex.euler_characteristic():
            ok = False
    _rec(rep, "ti-dim-sum", "alternating chain dimensions equal rank times Euler characteristic",
         content_digest("dims"), ok, 0, ok)

    # two-term acyclic: t_comb equals |det D_1|
    ok = True
    worst = 0.0
    for _ in range(10):
        m = random_invertible(rng, 2)
        det_mm = _det_minus_identity(m)
        if det_mm == 0:
            continue
        cx = corpus_get("circle-1cell").complex
        bundle = FlatBundle(2, {"e": m})
        tcc = assemble(cx, bundle, canonical_spray(cx))
        te = t_comb(tcc, "eig")
        want = abs(float(det_mm))
        worst = max(worst, _rel(te, want))
    _rec(rep, "ti-two-term-det", "acyclic two-term complexes: Laplacian torsion equals |det D_1|",
         content_digest("circle-random-10"), worst, 1e-9, worst <= 1e-9)

    # acyclic instances: eigen route vs Gaussian determinant route
    worst = 0.0
    for name, bundle in _acyclic_instances(rng):
        cx = corpus_get(name).complex
        tcc = assemble(cx, bundle, canonical_spray(cx))
        worst = max(worst, _rel(t_comb(tcc, "eig"), t_comb(tcc, "det")))
    _rec(rep, "ti-acyclic-routes", "Laplacian and determinant torsion routes agree on acyclic instances",
         content_digest("acyclic-instances"), worst, 1e-9, worst <= 1e-9)

    # exact route vs float route on rational inputs
    worst = 0.0
    for name in ("circle-1cell", "torus", "klein", "lens-3-1", "lens-5-1"):
        cx = corpus_get(name).complex
        bundle = random_flat_bundle(name, cx, rng)
        tcc = assemble(cx, bundle, canonical_spray(cx))
        worst = max(worst, _rel(t_comb(tcc, "eig"), t_comb(tcc, "exact")))
    _rec(rep, "ti-exact-routes", "eigenvalue and exact rational torsion routes agree on rational inputs",
         content_digest("exact-routes"), worst, 1e-9, worst <= 1e-9)

    # lens closed-form oracle (Gaussian elimination on the explicit complex)
    worst = 0.0
    for p in (3, 5, 7):
        got = t_comb(assemble(corpus_get(f"lens-{p}-1").complex, lens_rotation_bundle(p), canonical_spray(corpus_get(f"lens-{p}-1").complex)), "eig")
        want = _lens_gaussian_oracle(p, 1)
        worst = max(worst, _rel(got, want))
    _rec(rep, "ti-lens-closed", "lens torsion matches the explicit-chain Gaussian oracle",
         content_digest("lens-3-5-7"), worst, 1e-9, worst <= 1e-9)

    # invariance under spray re-choice inside the Euler structure
    worst = _spray_rechoice_worst()
    _rec(rep, "ti-spray-rechoice", "torsion value is invariant under null spray modifications",
         content_digest("rechoice"), worst, 1e-9, worst <= 1e-9)

    # gauge invariance
    worst = 0.0
    for name in ("torus", "klein", "circle-2vertex"):
        cx = corpus_get(name).complex
        bundle = random_flat_bundle(name, cx, rng)
        spray = canonical_spray(cx)
        v1 = ft_torsion(cx, bundle, spray).ft_metric.value
        gb, _ = gauge_normalize(cx, bundle)
        v2 = ft_torsion(cx, gb, spray).ft_metric.value
        worst = max(worst, _rel(v1, v2))
    _rec(rep, "ti-gauge", "torsion value is invariant under gauge normalization",
         content_digest("gauge"), worst, 1e-9, worst <= 1e-9)

    # kernel-basis independence: orthogonal reference change leaves the value
    cx = corpus_get("torus").complex
    bundle = corpus_get("torus").bundle
    spray = canonical_spray(cx)
    res = ft_torsion(cx, bundle, spray)
    refs = {d: b.copy() for d, b in res.harmonic_bases.items() if b.size}
    rng2 = np.random.default_rng(7)
    rot = {d: _random_orthogonal(rng2, b.shape[0]) for d, b in refs.items()}
    refs_rot = {d: rot[d] @ b for d, b in refs.items()}
    v1 = ft_torsion(cx, bundle, spray, reference_cycles=refs).ft_metric.value
    v2 = ft_torsion(cx, bundle, spray, reference_cycles=refs_rot).ft_metric.value
    worst = max(_rel(v1, res.ft_metric.value), _rel(v2, v1))
    _rec(rep, "ti-kernel-basis", "orthogonal changes of the kernel reference leave the value",
         content_digest("kernel-basis"), worst, 1e-9, worst <= 1e-9)

    # fiber-frame covariance: |det S|^(-2 chi), no change when chi = 0
    worst = _base_change_worst(rng)
    _rec(rep, "ti-base-change", "frame change S at the base moves the value by |det S|^(-2 chi)",
         content_digest("base-change"), worst, 1e-9, worst <= 1e-9)

    # multiplicativity of the Euler-action ratio
    circ = corpus_get("circle-1cell").complex
    b2 = FlatBundle(1, {"e": [[2]]})
    alpha = canonical_spray(circ)
    r1 = euler_action_on_torsion(circ, b2, alpha, h1_class_for(circ, (1,)))
    r2 = euler_action_on_torsion(circ, b2, alpha, h1_class_for(circ, (2,)))
    r3 = euler_action_on_torsion(circ, b2, alpha, h1_class_for(circ, (3,)))
    worst = max(_rel(r1 * r2, r3), _rel(r1 * r1, r2))
    _rec(rep, "ti-euler-mult", "euler_action_on_torsion(u+v) = product of the factors",
         content_digest("mult"), worst, 1e-9, worst <= 1e-9)
    return rep


def _acyclic_instances(rng):
    out = []
    for _ in range(5):
        m = random_invertible(rng, 1)
        if m[0][0] != 1:
            out.append(("circle-1cell", FlatBundle(1, {"e": m})))
    for p in (3, 5, 7):
        out.append((f"lens-{p}-1", lens_rotation_bundle(p)))
    out.append(("lens-5-2", lens_rotation_bundle(5, 2)))
    return out


def _lens_gaussian_oracle(p, q, turns=1):
    """Torsion of the explicit lens chain complex by Gaussian volumes.

    Builds D_1 = R - I, D_2 = sum_j R^j, D_3 = R^{q'} - I directly from the
    classical attachment pattern and multiplies vol(D_d)^{(-1)^{d+1}} with
    LU determinants; no eigensolver and no shared assembly code.
    """
    from .corpus import inverse_mod, rotation_matrix

    r = rotation_matrix(2 * math.pi * turns / p)
    qp = inverse_mod(q, p)
    d1 = r - np.eye(2)
    d2 = sum(np.linalg.matrix_power(r, j) for j in range(p))
    d3 = np.linalg.matrix_power(r, qp) - np.eye(2)
    scale = max(np.abs(d1).max(), np.abs(d2).max(), np.abs(d3).max(), 1.0)
    return lx.vol_float(d1, scale=scale) / lx.vol_float(d2, scale=scale) * lx.vol_float(d3, scale=scale)


def _spray_rechoice_worst():
    worst = 0.0
    for name, bundle in (
        ("circle-1cell", FlatBundle(1, {"e": [[3]]})),
        ("torus", FlatBundle(1, {"a": [[1]], "b": [[1]]})),
        ("klein", FlatBundle(1, {"a": [[-1]], "b": [[2]]})),
    ):
        cx = corpus_get(name).complex
        alpha = canonical_spray(cx)
        # null modification: a contractible detour on one leg, a trivial loop on another
        cells = [c for c in cx.cells if c.id != cx.base_vertex]
        e0 = next(c for c in cells if c.dim == 1)
        t, h = cx.edge_endpoints(e0.id)
        detour = EdgePath(((e0.id, 1), (e0.id, -1)), cx.base_vertex, cx.base_vertex)
        beta = alpha.with_leg(e0.id, detour.compose(alpha.leg(e0.id)))
        if not spray_difference(cx, alpha, beta).is_zero:
            raise TorsionLabError("rechoice oracle constructed a nonzero class")
        res_a, res_b = ft_torsion_pair(cx, bundle, alpha, beta)
        worst = max(worst, _rel(res_a.ft_metric.value, res_b.ft_metric.value))
    return worst


def _base_change_worst(rng):
    worst = 0.0
    for name, chi in (("point", 1), ("rp2", 1), ("torus", 0), ("sphere", 2)):
        item = corpus_get(name)
        cx, bundle = item.complex, item.bundle
        spray = canonical_spray(cx)
        res0 = ft_torsion(cx, bundle, spray)
        refs = {d: b for d, b in res0.harmonic_bases.items() if b.size}
        v0 = ft_torsion(cx, bundle, spray, reference_cycles=refs or None).ft_metric.value
        k = bundle.rank
        s = np.array(lx.to_float(random_invertible(rng, k)))
        framed = bundle.with_reference_basis(s)
        v1 = ft_torsion(cx, framed, spray, reference_cycles=refs or None).ft_metric.value
        want = v0 * abs(np.linalg.det(s)) ** (-2 * chi)
        worst = max(worst, _rel(v1, want))
    return worst


def _random_orthogonal(rng, n):
    if n == 0:
        return np.zeros((0, 0))
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q @ np.diag(np.sign(np.diag(r)))


# ---------------------------------------------------------------------------


def suite_subdivision(rounds=2):
    rep = SuiteReport("subdivision")
    rng = np.random.default_rng(20240814)

    names = ["circle-1cell", "circle-2vertex", "torus", "klein", "rp2", "sphere", "tetra-solid"]
    ok_chi, ok_hom, ok_flat = True, True, True
    for name in names:
        item = corpus_get(name)
        cx = item.complex
        bundle = random_flat_bundle(name, cx, rng)
        spray = canonical_spray(cx)
        sub_cx, sub_b, sub_s, smap = barycentric_subdivide(cx, bundle, spray)
        if sub_cx.euler_characteristic() != cx.euler_characteristic():
            ok_chi = False
        for d in range(cx.dim + 1):
            if cx.integral_homology(d)[0] != sub_cx.integral_homology(d)[0]:
                ok_hom = False
        fl = check_flatness(sub_cx, sub_b)
        if not fl.ok:
            ok_flat = False
    _rec(rep, "sd-chi", "Euler characteristic is preserved by subdivision",
         content_digest(names), ok_chi, True, ok_chi)
    _rec(rep, "sd-homology", "homology ranks are preserved by subdivision",
         content_digest(names), ok_hom, True, ok_hom)
    _rec(rep, "sd-flat", "the induced bundle is flat on the subdivided complex",
         content_digest(names), ok_flat, True, ok_flat)

    # transport is preserved on refined loops
    circ = corpus_get("circle-1cell")
    sub_cx, sub_b, sub_s, smap = barycentric_subdivide(
        circ.complex, FlatBundle(1, {"e": [[2]]}), canonical_spray(circ.complex)
    )
    loop = EdgePath((("e", 1),), "v", "v")
    m = transport(sub_b, smap.path_transfer(loop))
    ok = m == [[2]]
    _rec(rep, "sd-transport", "refined transports multiply back to the old edge matrices",
         content_digest("circle-2"), ok, True, ok)

    # twisted chain map intertwines the boundaries
    worst = 0.0
    for name in ("torus", "klein", "rp2", "sphere", "tetra-solid"):
        cx = corpus_get(name).complex
        bundle = random_flat_bundle(name, cx, rng)
        spray = canonical_spray(cx)
        sub_cx, sub_b, sub_s, smap = barycentric_subdivide(cx, bundle, spray)
        tcc = assemble(cx, bundle, spray)
        tcc2 = assemble(sub_cx, sub_b, sub_s)
        k = bundle.rank
        for d in range(1, cx.dim + 1):
            phi_d = smap.chain_map_matrix(d, k)
            phi_prev = smap.chain_map_matrix(d - 1, k)
            lhs = phi_d @ tcc2.boundary(d)
            rhs = tcc.boundary(d) @ phi_prev
            if lhs.size:
                worst = max(worst, float(np.abs(lhs - rhs).max()))
    _rec(rep, "sd-chain-map", "the subdivision chain map intertwines twisted boundaries",
         content_digest("chain-map"), worst, 1e-9, worst <= 1e-9)

    # torsion value is unchanged under one and two rounds
    worst = 0.0
    cases = [
        ("circle-1cell", FlatBundle(1, {"e": [[3]]})),
        ("circle-1cell", FlatBundle(2, {"e": [[0, -1], [1, -1]]})),
        ("torus", FlatBundle(1, {"a": [[1]], "b": [[1]]})),
        ("torus", FlatBundle(1, {"a": [[2]], "b": [[3]]})),
        ("rp2", FlatBundle(1, {"a": [[-1]]})),
        ("klein", FlatBundle(1, {"a": [[-1]], "b": [[2]]})),
    ]
    for name, bundle in cases:
        worst = max(worst, _subdivision_ft_drift(name, bundle, rounds))
    _rec(rep, "sd-ft-invariance", f"torsion value unchanged under {rounds} rounds of subdivision",
         content_digest([n for n, _ in cases]), worst, 1e-8, worst <= 1e-8)
    return rep


def _subdivision_ft_drift(name, bundle, rounds):
    item = corpus_get(name)
    cx, spray = item.complex, canonical_spray(item.complex)
    res = ft_torsion(cx, bundle, spray)
    base_value = res.ft_metric.value
    refs = {d: b for d, b in res.harmonic_bases.items() if b.size}
    worst = 0.0
    k = bundle.rank
    for _ in range(rounds):
        cx2, bundle2, spray2, smap = barycentric_subdivide(cx, bundle, spray)
        refs = smap.transport_reference(refs, k) if refs else {}
        res2 = ft_torsion(cx2, bundle2, spray2, reference_cycles=refs or None)
        worst = max(worst, _rel(res2.ft_metric.value, base_value))
        cx, bundle, spray = cx2, bundle2, spray2
    return worst


# ---------------------------------------------------------------------------


def suite_cheeger_muller(count=50, truncation=1_000_000):
    rep = SuiteReport("cheeger-muller")
    rng = np.random.default_rng(20240815)
    holos = []
    while len(holos) < count:
        k = int(rng.choice([1, 1, 2, 2, 3]))
        m = random_invertible(rng, k)
        if _det_minus_identity(m) == 0:
            continue
        holos.append(m)

    circ = corpus_get("circle-1cell").complex
    spray = canonical_spray(circ)
    worst = 0.0
    for m in holos:
        model = CircleModel(lx.to_float(m))
        an = analytic_torsion_circle(model)
        tc = t_comb(assemble(circ, FlatBundle(len(m), {"e": m}), spray), "eig")
        worst = max(worst, _rel(an.value, tc))
    _rec(rep, "cm-agree", f"analytic equals combinatorial torsion for {count} random acyclic holonomies",
         content_digest("cm-random"), worst, 1e-6, worst <= 1e-6)

    # truncated route against the closed form at the full truncation
    worst = 0.0
    for m in holos[:8]:
        model = CircleModel(lx.to_float(m))
        z = zeta_det_laplacian(model, truncation=truncation)
        worst = max(worst, z.discrepancy)
    _rec(rep, "cm-truncation", f"truncated spectral route matches the closed form at N = {truncation}",
         content_digest("cm-trunc"), worst, 1e-6, worst <= 1e-6)

    # raw truncation error decreases beyond N = 1000 (the tail-corrected
    # route is already at float noise there, so monotonicity is measured on
    # the uncorrected product)
    ok = True
    for m in holos[:3]:
        model = CircleModel(lx.to_float(m))
        errs = []
        for n in (1000, 4000, 16000, 64000):
            z = zeta_det_laplacian(model, truncation=n, tail_correction=False)
            errs.append(z.discrepancy)
        if any(errs[i + 1] > errs[i] for i in range(len(errs) - 1)):
            ok = False
    _rec(rep, "cm-monotone", "truncation error decreases monotonically beyond N = 1000",
         content_digest("cm-monotone"), ok, True, ok)

    # circumference independence in the acyclic case
    worst = 0.0
    for m in holos[:5]:
        vals = [
            analytic_torsion_circle(CircleModel(lx.to_float(m), circumference=c)).value
            for c in (1.0, 2.0, math.pi)
        ]
        worst = max(worst, _rel(max(vals), min(vals)))
    _rec(rep, "cm-scale", "analytic torsion is independent of the circumference (acyclic case)",
         content_digest("cm-scale"), worst, 1e-9, worst <= 1e-9)
    return rep


# ---------------------------------------------------------------------------


def suite_ft_transformation(count=50):
    rep = SuiteReport("ft-transformation")
    rng = np.random.default_rng(20240816)

    worst = 0.0
    tried = 0
    while tried < count:
        name = ["circle-1cell", "torus", "klein"][int(rng.integers(0, 3))]
        cx = corpus_get(name).complex
        bundle = random_flat_bundle(name, cx, rng)
        lat = cx.h1_lattice()
        coords = tuple(
            int(rng.integers(0, c)) for c in lat.torsion
        ) + tuple(int(rng.integers(-2, 3)) for _ in range(lat.rank))
        u = h1_class_for(cx, coords)
        alpha = canonical_spray(cx)
        ratio = euler_action_on_torsion(cx, bundle, alpha, u)
        want = det_of_class(cx, bundle, u) ** EULER_ACTION_EXPONENT
        worst = max(worst, _rel(ratio, want))
        tried += 1
    _rec(rep, "ft-ratio", f"torsion ratio equals |det rho(u)|^{EULER_ACTION_EXPONENT} for {count} random (bundle, u) pairs",
         content_digest("ft-ratio"), worst, 1e-9, worst <= 1e-9)

    # volume-preserving bundles: ratio identically 1
    worst = 0.0
    rots = {
        "circle-1cell": lambda: FlatBundle(2, {"e": [["3/5", "-4/5"], ["4/5", "3/5"]]}),
        "torus": lambda: FlatBundle(
            2,
            {"a": [["3/5", "-4/5"], ["4/5", "3/5"]], "b": [["5/13", "-12/13"], ["12/13", "5/13"]]},
        ),
    }
    for name, mk in rots.items():
        cx = corpus_get(name).complex
        bundle = mk()
        lat = cx.h1_lattice()
        alpha = canonical_spray(cx)
        for coords in _coordinate_box(lat, 1):
            u = h1_class_for(cx, coords)
            ratio = euler_action_on_torsion(cx, bundle, alpha, u)
            worst = max(worst, abs(ratio - 1.0))
    _rec(rep, "ft-orthogonal", "orthogonal bundles: torsion ratio is 1 for every u",
         content_digest("ft-orth"), worst, 1e-9, worst <= 1e-9)
    return rep


# ---------------------------------------------------------------------------

SUITES = {
    "flatness": suite_flatness,
    "euler-action": suite_euler_action,
    "torsion-invariance": suite_torsion_invariance,
    "subdivision": suite_subdivision,
    "cheeger-muller": suite_cheeger_muller,
    "ft-transformation": suite_ft_transformation,
}

# Module invariants -> the suite properties that execute them.
INVARIANT_COVERAGE = {
    "complex_core/boundary-squared-integer": ["torsion-invariance/ti-exactness"],
    "complex_core/chi-subdivision-invariant": ["subdivision/sd-chi"],
    "complex_core/homology-subdivision-invariant": ["subdivision/sd-homology"],
    "complex_core/flatness-preserved-by-subdivision": ["subdivision/sd-flat"],
    "flat_bundle/transport-functorial": ["flatness/fb-functorial"],
    "flat_bundle/kt-detour-invariant": ["flatness/fb-kt-detour"],
    "flat_bundle/kt-homology-invariant": ["flatness/fb-kt-homology"],
    "flat_bundle/kt-zero-for-unimodular": [
        "flatness/fb-kt-unimodular",
        "ft-transformation/ft-orthogonal",
    ],
    "euler_struct/action-identity-and-composition": ["euler-action/es-action-law"],
    "euler_struct/free-transitive": ["euler-action/es-free-transitive"],
    "euler_struct/difference-cocycle": ["euler-action/es-action-law"],
    "euler_struct/loop-modify-chi-gamma": ["euler-action/es-loop-modify"],
    "euler_struct/ft-detects-euler-structure": ["euler-action/es-ft-detects"],
    "torsion_engine/boundary-squared-twisted": ["torsion-invariance/ti-exactness"],
    "torsion_engine/dimension-alternating-sum": ["torsion-invariance/ti-dim-sum"],
    "torsion_engine/two-term-determinant": ["torsion-invariance/ti-two-term-det"],
    "torsion_engine/ft-spray-rechoice": ["torsion-invariance/ti-spray-rechoice"],
    "torsion_engine/ft-gauge-invariance": ["torsion-invariance/ti-gauge"],
    "torsion_engine/ft-kernel-basis": ["torsion-invariance/ti-kernel-basis"],
    "torsion_engine/ft-subdivision-invariance": ["subdivision/sd-ft-invariance"],
    "torsion_engine/euler-ratio-multiplicative": ["torsion-invariance/ti-euler-mult"],
    "torsion_engine/base-change-covariance": ["torsion-invariance/ti-base-change"],
    "analytic_model/truncation-converges": [
        "cheeger-muller/cm-truncation",
        "cheeger-muller/cm-monotone",
    ],
    "analytic_model/scale-invariance": ["cheeger-muller/cm-scale"],
    "analytic_model/cheeger-muller": ["cheeger-muller/cm-agree"],
}


def run_suite(name):
    """Execute one named suite and return its deterministic report."""
    if name not in SUITES:
        raise UnknownNameError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    return SUITES[name]()


def run_all():
    return {name: run_suite(name) for name in sorted(SUITES)}
