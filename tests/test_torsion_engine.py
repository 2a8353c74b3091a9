import math

import numpy as np
import pytest
from fractions import Fraction

from torsionlab import linalg_exact as lx
from torsionlab.complex_core import Cell, ComplexDescription, EdgePath, Incidence
from torsionlab.corpus import (
    build_lens,
    companion_matrix_cyclotomic,
    corpus_get,
    corpus_list,
    lens_rotation_bundle,
    random_flat_bundle,
    random_invertible,
)
from torsionlab.barycentric import barycentric_subdivide
from torsionlab.errors import (
    FloatRangeError,
    IllConditionedError,
    TorsionLabError,
    UnsupportedStructureError,
)
from torsionlab.euler_struct import act, canonical_spray, h1_class_for, h1_zero
from torsionlab.flat_bundle import FlatBundle, transport
from torsionlab import torsion_engine
from torsionlab.torsion_engine import (
    EULER_ACTION_EXPONENT,
    assemble,
    det_of_class,
    det_prime,
    euler_action_on_torsion,
    ft_torsion,
    ft_torsion_of_tcc,
    harmonic_metric,
    laplacians,
    t_comb,
    t_comb_squared_exact,
    transport_reference_between_sprays,
)


def triple(name, bundle=None):
    item = corpus_get(name)
    return item.complex, bundle if bundle is not None else item.bundle, item.spray


class TestAssemble:
    def test_circle_boundary_is_holonomy_minus_identity(self):
        cx, _, spray = triple("circle-1cell")
        a = [[2, 1], [1, 1]]
        tcc = assemble(cx, FlatBundle(2, {"e": a}), spray)
        want = lx.to_float(lx.msub(lx.fmat(a), lx.identity(2)))
        assert np.allclose(tcc.boundary(1), want)

    def test_point_all_zero_dims_k(self):
        cx, _, spray = triple("point")
        tcc = assemble(cx, FlatBundle(3, {}), spray)
        assert tcc.dims == {0: 3}
        assert tcc.boundary(1).shape == (0, 3)

    def test_lens_blocks_match_loop_power_pattern(self):
        p, q = 5, 2
        qp = 3  # q q' = 1 mod p
        cx = build_lens(p, q)
        r = companion_matrix_cyclotomic(p)
        tcc = assemble(cx, FlatBundle(p - 1, {"e": r}), canonical_spray(cx))
        rf = lx.to_float(r)
        eye = np.eye(p - 1)
        assert np.allclose(tcc.boundary(1), rf - eye)
        power_sum = sum(np.linalg.matrix_power(rf, j) for j in range(p))
        assert np.allclose(tcc.boundary(2), power_sum, atol=1e-12)
        assert np.allclose(tcc.boundary(3), np.linalg.matrix_power(rf, qp) - eye)
        # boundary of boundary vanishes exactly in rational mode
        for d in (2, 3):
            up = tcc.boundaries_exact[d]
            dn = tcc.boundaries_exact[d - 1]
            assert lx.is_zero(lx.matmul(up, dn))


def per_incidence_boundaries(cx, bundle, spray):
    """Boundaries built one incidence at a time as leg . transport(path) . leg^-1,
    every transport taken from scratch, accumulated in assemble's order."""
    k = bundle.rank
    inv = lx.inverse if bundle.exact else np.linalg.inv
    legs = {cid: transport(bundle, leg) for cid, leg in spray.legs}
    out = {}
    for d in range(1, cx.dim + 1):
        ri = {c.id: i for i, c in enumerate(cx.cells_of_dim(d))}
        ci = {c.id: j for j, c in enumerate(cx.cells_of_dim(d - 1))}
        shape = (k * len(ri), k * len(ci))
        m = lx.zeros(*shape) if bundle.exact else np.zeros(shape)
        for rec in cx.incidences:
            if rec.coface not in ri:
                continue
            block = bundle.mul(
                bundle.mul(legs[rec.coface], transport(bundle, rec.path)), inv(legs[rec.face])
            )
            i0, j0 = k * ri[rec.coface], k * ci[rec.face]
            if bundle.exact:
                for a in range(k):
                    for b in range(k):
                        m[i0 + a][j0 + b] += rec.coeff * block[a][b]
            else:
                m[i0 : i0 + k, j0 : j0 + k] += rec.coeff * block
        out[d] = m
    return out


class TestSharedWalkTransports:
    def test_lens_exact_blocks_equal_per_incidence(self):
        cx = build_lens(7, 1)
        bundle = FlatBundle(6, {"e": companion_matrix_cyclotomic(7)})
        spray = canonical_spray(cx)
        tcc = assemble(cx, bundle, spray)
        assert tcc.boundaries_exact == per_incidence_boundaries(cx, bundle, spray)
        assert all(
            type(x) is Fraction for m in tcc.boundaries_exact.values() for row in m for x in row
        )

    def test_subdivided_torus_exact_blocks_equal_per_incidence(self):
        cx, _, spray = triple("torus")
        bundle = FlatBundle(2, {"a": [[2, 1], [1, 1]], "b": [[1, 0], [0, 1]]})
        cx, bundle, spray, _ = barycentric_subdivide(cx, bundle, spray)
        tcc = assemble(cx, bundle, spray)
        assert tcc.boundaries_exact == per_incidence_boundaries(cx, bundle, spray)

    def test_lens_float_blocks_bit_identical(self):
        cx = build_lens(7, 1)
        bundle = lens_rotation_bundle(7, 1, turns=3)
        spray = canonical_spray(cx)
        tcc = assemble(cx, bundle, spray)
        want = per_incidence_boundaries(cx, bundle, spray)
        assert sorted(tcc.boundaries) == sorted(want)
        for d, m in want.items():
            assert np.array_equal(tcc.boundaries[d], m)

    def test_exact_float_boundaries_are_dense_to_float(self):
        # the float copy converts only written blocks; it must equal the dense conversion
        torus, _, spray = triple("torus")
        hyperbolic = FlatBundle(2, {"a": [[2, 1], [1, 1]], "b": [[1, 0], [0, 1]]})
        lens = build_lens(7, 1)
        cases = [
            (lens, FlatBundle(6, {"e": companion_matrix_cyclotomic(7)}), canonical_spray(lens)),
            barycentric_subdivide(torus, hyperbolic, spray)[:3],
        ]
        for cx, bundle, spray in cases:
            tcc = assemble(cx, bundle, spray)
            for d, m in tcc.boundaries_exact.items():
                want = lx.to_float(m)
                assert tcc.boundaries[d].shape == want.shape
                assert np.array_equal(tcc.boundaries[d], want)

    @pytest.mark.parametrize("name", corpus_list())
    def test_corpus_rounds_0_1_equal_per_incidence(self, name):
        # exact random bundles at ranks 1-2; the lens items carry float rotations
        item = corpus_get(name)
        rng = np.random.default_rng(41)
        if item.bundle.exact:
            bundles = [random_flat_bundle(name, item.complex, rng, rank=k) for k in (1, 2)]
        else:
            p, q = (int(x) for x in name.split("-")[1:])
            bundles = [lens_rotation_bundle(p, q, turns=t) for t in (1, 2)]
        for bundle in bundles:
            cx, spray = item.complex, item.spray
            for _ in range(2):
                tcc = assemble(cx, bundle, spray)
                want = per_incidence_boundaries(cx, bundle, spray)
                if bundle.exact:
                    assert tcc.boundaries_exact == want
                    want = {d: lx.to_float(m) for d, m in want.items()}
                assert sorted(tcc.boundaries) == sorted(want)
                for d, m in want.items():
                    assert np.array_equal(tcc.boundaries[d], m)
                try:
                    cx, bundle, spray, _ = barycentric_subdivide(cx, bundle, spray)
                except UnsupportedStructureError:
                    break

    def test_ft_route_builds_no_dense_exact_boundary(self):
        cx, _, spray = triple("torus")
        tcc = assemble(cx, FlatBundle(2, {"a": [[2, 1], [1, 1]], "b": [[1, 0], [0, 1]]}), spray)
        res = ft_torsion_of_tcc(tcc)
        assert "boundaries_exact" not in vars(tcc)
        assert abs(t_comb(tcc, "exact") - res.t_comb) <= 1e-9 * res.t_comb

    def test_broken_three_cell_raises(self):
        # the integer boundary of C is F - F = 0, but the twisted one is (rho(a) - 1) F
        torus = corpus_get("torus").complex
        cx = ComplexDescription(
            torus.cells + (Cell("C", 3, "v"),),
            torus.incidences
            + (
                Incidence("C", "F", 1, EdgePath((("a", 1),), "v", "v")),
                Incidence("C", "F", -1, EdgePath((), "v", "v")),
            ),
            torus.base_vertex,
            "torus-broken-3-cell",
        )
        cx.require_valid()
        bundle = FlatBundle(1, {"a": [[2]], "b": [[3]]})
        for b in (bundle, bundle.as_float()):
            with pytest.raises(TorsionLabError, match="squared is nonzero in degree 3"):
                assemble(cx, b, canonical_spray(cx))

    def test_lens_19_cyclotomic(self):
        cx = build_lens(19, 1)
        tcc = assemble(cx, FlatBundle(18, {"e": companion_matrix_cyclotomic(19)}), canonical_spray(cx))
        assert t_comb_squared_exact(tcc) == 19**4


class TestLaplacians:
    def test_circle_two(self):
        cx, _, spray = triple("circle-1cell")
        tcc = assemble(cx, FlatBundle(1, {"e": [[2]]}), spray)
        laps = laplacians(tcc)
        assert np.allclose(laps[0], [[1.0]])
        assert np.allclose(laps[1], [[1.0]])

    def test_point_zero(self):
        cx, _, spray = triple("point")
        laps = laplacians(assemble(cx, FlatBundle(2, {}), spray))
        assert np.allclose(laps[0], np.zeros((2, 2)))

    def test_nonnegative_spectra(self):
        rng = np.random.default_rng(31)
        for name in ("torus", "klein", "lens-5-1"):
            cx = corpus_get(name).complex
            b = random_flat_bundle(name, cx, rng)
            laps = laplacians(assemble(cx, b, canonical_spray(cx)))
            for lap in laps.values():
                w = np.linalg.eigvalsh(lap)
                assert w.min(initial=0.0) >= -1e-9


class TestDetPrime:
    def test_zero_matrix(self):
        assert det_prime(np.zeros((3, 3))) == 1.0

    def test_diag_zero_four(self):
        assert abs(det_prime(np.diag([0.0, 4.0])) - 4.0) <= 1e-12

    def test_circle_three_laplacian(self):
        cx, _, spray = triple("circle-1cell")
        tcc = assemble(cx, FlatBundle(1, {"e": [[3]]}), spray)
        assert abs(det_prime(laplacians(tcc)[1]) - 4.0) <= 1e-12

    def test_asymmetric_rejected(self):
        with pytest.raises(TorsionLabError):
            det_prime(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_guard_band_raises(self):
        m = np.diag([1.0, 5e-10])  # inside [0.1, 10] x (1e-10 * lambda_max)
        with pytest.raises(IllConditionedError):
            det_prime(m)


class TestTComb:
    def test_circle_three_equals_det_oracle(self):
        cx, _, spray = triple("circle-1cell")
        bundle = FlatBundle(1, {"e": [[3]]})
        tcc = assemble(cx, bundle, spray)
        oracle = abs(float(lx.det(lx.msub(bundle.edge_matrices["e"], lx.identity(1)))))
        assert abs(t_comb(tcc, "eig") - oracle) <= 1e-12
        assert oracle == 2.0

    def test_point_is_one(self):
        cx, _, spray = triple("point")
        assert t_comb(assemble(cx, FlatBundle(4, {}), spray), "eig") == 1.0

    def test_lens_rotation_matches_gaussian_oracle(self):
        # alternating product of the volumes of the explicit chain maps,
        # computed by Gaussian elimination on independently built matrices
        for p in (3, 5, 7):
            cx = build_lens(p, 1)
            bundle = lens_rotation_bundle(p)
            tcc = assemble(cx, bundle, canonical_spray(cx))
            r = bundle.edge_matrices["e"]
            d1 = r - np.eye(2)
            d2 = sum(np.linalg.matrix_power(r, j) for j in range(p))
            d3 = r - np.eye(2)  # q' = 1 for q = 1
            scale = max(np.abs(d1).max(), np.abs(d2).max(), np.abs(d3).max(), 1.0)
            oracle = (
                lx.vol_float(d1, scale=scale)
                * lx.vol_float(d2, scale=scale) ** -1
                * lx.vol_float(d3, scale=scale)
            )
            assert abs(t_comb(tcc, "eig") - oracle) <= 1e-9 * oracle

    def test_torsion_distinguishes_lens_spaces(self):
        # the classical separation: same homology, different torsion
        import math

        vals = {}
        for p, q in ((5, 1), (5, 2)):
            cx = build_lens(p, q)
            t = t_comb(assemble(cx, lens_rotation_bundle(p, q), canonical_spray(cx)), "eig")
            from torsionlab.corpus import inverse_mod

            qp = inverse_mod(q, p)
            closed = (2 - 2 * math.cos(2 * math.pi / p)) * (
                2 - 2 * math.cos(2 * math.pi * qp / p)
            )
            assert abs(t - closed) <= 1e-9 * closed
            vals[(p, q)] = t
        assert abs(vals[(5, 1)] - vals[(5, 2)]) > 1.0

    def test_exact_route_agrees_with_eig(self):
        rng = np.random.default_rng(32)
        for name in ("circle-1cell", "torus", "klein", "lens-3-1"):
            cx = corpus_get(name).complex
            b = random_flat_bundle(name, cx, rng)
            tcc = assemble(cx, b, canonical_spray(cx))
            te, tx = t_comb(tcc, "eig"), t_comb(tcc, "exact")
            assert abs(te - tx) <= 1e-9 * max(te, tx)

    def test_exact_square_is_rational(self):
        cx, _, spray = triple("circle-1cell")
        tcc = assemble(cx, FlatBundle(1, {"e": [["5/2"]]}), spray)
        assert t_comb_squared_exact(tcc) == Fraction(9, 4)

    def test_exact_route_outside_float_range(self):
        cx, _, spray = triple("circle-1cell")
        # t^2 = 10**400 does not fit a float, t = 10**200 does
        tcc = assemble(cx, FlatBundle(1, {"e": [[10**200 + 1]]}), spray)
        assert t_comb_squared_exact(tcc) == 10**400
        assert t_comb(tcc, "exact") == 1e200
        tcc = assemble(cx, FlatBundle(1, {"e": [[Fraction(10**200 + 1, 10**200)]]}), spray)
        assert t_comb(tcc, "exact") == 1e-200
        tcc.boundaries_exact[1] = [[Fraction(10**700)]]
        with pytest.raises(FloatRangeError):
            t_comb(tcc, "exact")

    def test_huge_rational_entry_is_typed_error(self):
        cx, _, spray = triple("circle-1cell")
        with pytest.raises(FloatRangeError):
            assemble(cx, FlatBundle(1, {"e": [[10**400]]}), spray)

    def test_tiny_nonzero_entry_is_typed_error(self):
        # holonomy 1 + 10**-400: the boundary entry 10**-400 is nonzero but rounds to 0.0,
        # which would make an acyclic complex look non-acyclic with t_comb 1
        cx, _, spray = triple("circle-1cell")
        bundle = FlatBundle(1, {"e": [[1 + Fraction(1, 10**400)]]})
        with pytest.raises(FloatRangeError):
            ft_torsion(cx, bundle, spray)

    def test_two_term_acyclic_equals_det(self):
        rng = np.random.default_rng(33)
        cx, _, spray = triple("circle-1cell")
        for _ in range(10):
            from torsionlab.corpus import random_invertible

            m = random_invertible(rng, 2)
            if lx.det(lx.msub(m, lx.identity(2))) == 0:
                continue
            tcc = assemble(cx, FlatBundle(2, {"e": m}), spray)
            want = abs(float(lx.det(lx.msub(m, lx.identity(2)))))
            assert abs(t_comb(tcc, "eig") - want) <= 1e-9 * want


def scalar_bundle(rank, scales):
    """Rank-`rank` bundle with holonomy scale * I on each named edge."""
    return FlatBundle(
        rank,
        {e: [[c if i == j else 0 for j in range(rank)] for i in range(rank)] for e, c in scales.items()},
    )


class TestLogDomainRange:
    """Torsion sums log-eigenvalues, so only the torsion itself must fit a double."""

    def test_torus_huge_holonomy_gives_one(self):
        # every det' is ~1e960, past the double range, while t_comb is 1
        cx, _, spray = triple("torus")
        tcc = assemble(cx, scalar_bundle(8, {"a": 10**60, "b": 1}), spray)
        res = ft_torsion_of_tcc(tcc)
        assert abs(res.t_comb - 1.0) <= 1e-9
        assert abs(res.ft_metric.value - 1.0) <= 1e-9
        assert abs(t_comb(tcc, "eig") - 1.0) <= 1e-9
        assert t_comb(tcc, "exact") == 1.0
        with pytest.raises(FloatRangeError):  # vol(D_1) = 1e480 itself leaves the range
            t_comb(tcc, "det")

    def test_circle_torsion_past_float_range_raises(self):
        # t_comb = (1e60 - 1)**8, about 1e480
        cx, _, spray = triple("circle-1cell")
        bundle = scalar_bundle(8, {"e": 10**60})
        with pytest.raises(FloatRangeError):
            ft_torsion(cx, bundle, spray)
        tcc = assemble(cx, bundle, spray)
        for method in ("eig", "det", "exact"):
            with pytest.raises(FloatRangeError):
                t_comb(tcc, method)

    def test_det_prime_past_float_range_raises(self):
        assert abs(det_prime(np.diag([0.0, 1e200])) / 1e200 - 1.0) <= 1e-12
        with pytest.raises(FloatRangeError):
            det_prime(np.diag([1e200, 1e200]))

    def test_subdivided_torus_864_cells(self):
        # rounds 0-2 give 1 and subdivision invariance says round 3 does too
        cx, _, spray = triple("torus")
        bundle = FlatBundle(2, {"a": [[2, 1], [1, 1]], "b": [[1, 0], [0, 1]]})
        for _ in range(3):
            cx, bundle, spray, _ = barycentric_subdivide(cx, bundle, spray)
        assert len(cx.cells) == 864
        tcc = assemble(cx, bundle, spray)
        res = ft_torsion_of_tcc(tcc)
        assert abs(res.ft_metric.value - 1.0) <= 1e-8
        assert abs(res.t_comb - 1.0) <= 1e-8
        assert abs(t_comb(tcc, "det") - 1.0) <= 1e-8


def counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that counts its calls."""
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestOneSpectralPass:
    def test_ft_torsion_one_eigh_per_degree(self, monkeypatch):
        cx, _, spray = triple("torus")
        bundle = FlatBundle(2, {"a": [[2, 1], [1, 1]], "b": [[1, 0], [0, 1]]})
        eighs = counting(monkeypatch, np.linalg, "eigh")
        laps = counting(monkeypatch, torsion_engine, "laplacians")
        tcc = assemble(cx, bundle, spray)
        ft_torsion_of_tcc(tcc)
        assert len(eighs) == tcc.top_dim + 1 == 3
        assert len(laps) == 1

    def test_euler_action_assembles_each_spray_once(self, monkeypatch):
        cx, _, spray = triple("torus")
        bundle = FlatBundle(1, {"a": [[2]], "b": [[1]]})
        calls = counting(monkeypatch, torsion_engine, "assemble")
        euler_action_on_torsion(cx, bundle, spray, h1_class_for(cx, (0, 1)))
        assert len(calls) == 2


class TestHarmonicMetric:
    def test_acyclic_value_one(self):
        cx, _, spray = triple("circle-1cell")
        tcc = assemble(cx, FlatBundle(1, {"e": [[3]]}), spray)
        metric, spectra, betti, bases = harmonic_metric(tcc)
        assert metric.value == 1.0
        assert all(b == 0 for b in betti.values())

    def test_point_rank_one(self):
        cx, _, spray = triple("point")
        tcc = assemble(cx, FlatBundle(1, {}), spray)
        metric, _, betti, bases = harmonic_metric(tcc)
        assert betti == {0: 1}
        assert metric.value == 1.0

    def test_circle_trivial_kernels_are_ones_vectors(self):
        cx, _, spray = triple("circle-1cell")
        tcc = assemble(cx, FlatBundle(1, {"e": [[1]]}), spray)
        _, _, betti, bases = harmonic_metric(tcc)
        assert betti == {0: 1, 1: 1}
        for d in (0, 1):
            assert np.allclose(np.abs(bases[d]), [[1.0]])

    def test_reference_basis_change_scales_by_square_det(self):
        cx, bundle, spray = triple("torus")
        res = ft_torsion(cx, bundle, spray)
        refs = {d: b for d, b in res.harmonic_bases.items() if b.size}
        s1 = 3.0
        scaled = {d: (s1 * b if d == 1 else b) for d, b in refs.items()}
        v_ref = ft_torsion(cx, bundle, spray, reference_cycles=refs).ft_metric.value
        v_scaled = ft_torsion(cx, bundle, spray, reference_cycles=scaled).ft_metric.value
        b1 = res.betti[1]
        # degree 1 is odd: the value moves by |det(s1 I)|^(-2)
        assert abs(v_scaled / v_ref - s1 ** (-2 * b1)) <= 1e-9


class TestFtTorsion:
    def test_circle_three_value_pins_convention(self):
        # acyclic: the stored squared-norm value is t_comb^2
        cx, _, spray = triple("circle-1cell")
        res = ft_torsion(cx, FlatBundle(1, {"e": [[3]]}), spray)
        assert res.acyclic
        assert abs(res.t_comb - 2.0) <= 1e-12
        assert abs(res.ft_metric.value - res.t_comb**2) <= 1e-12

    def test_point_value_one(self):
        cx, _, spray = triple("point")
        res = ft_torsion(cx, FlatBundle(1, {}), spray)
        assert res.ft_metric.value == 1.0 and not res.acyclic

    def test_torus_trivial_matches_subdivision(self):
        from torsionlab.barycentric import barycentric_subdivide

        cx, bundle, spray = triple("torus", FlatBundle(1, {"a": [[1]], "b": [[1]]}))
        res = ft_torsion(cx, bundle, spray)
        refs = {d: b for d, b in res.harmonic_bases.items() if b.size}
        cx2, b2, s2, smap = barycentric_subdivide(cx, bundle, spray)
        res2 = ft_torsion(cx2, b2, s2, reference_cycles=smap.transport_reference(refs, 1))
        assert abs(res2.ft_metric.value - res.ft_metric.value) <= 1e-8 * res.ft_metric.value


class TestEulerAction:
    def test_zero_class_ratio_one(self):
        cx, _, spray = triple("circle-1cell")
        bundle = FlatBundle(1, {"e": [[2]]})
        assert euler_action_on_torsion(cx, bundle, spray, h1_zero(cx)) == 1.0

    def test_orthogonal_bundle_ratio_one(self):
        cx, _, spray = triple("torus")
        bundle = FlatBundle(
            2,
            {
                "a": [["3/5", "-4/5"], ["4/5", "3/5"]],
                "b": [["5/13", "-12/13"], ["12/13", "5/13"]],
            },
        )
        for coords in ((1, 0), (0, 1), (2, -1)):
            u = h1_class_for(cx, coords)
            assert abs(euler_action_on_torsion(cx, bundle, spray, u) - 1.0) <= 1e-9

    def test_sign_exponent_pinned_by_direct_oracle(self):
        # oracle: rebuild the 1 x 1 twisted boundary with the wound spray leg
        # by hand and read the torsion ratio off the resulting determinants
        cx, _, alpha = triple("circle-1cell")
        bundle = FlatBundle(1, {"e": [[2]]})
        u = h1_class_for(cx, (1,))
        beta = act(cx, u, alpha)
        leg = beta.leg("e")
        # block(e, v) = T(leg_e) (T(walk-head-conn) - T(nothing)) T(leg_v)^-1
        t_leg = float(transport(bundle, leg)[0][0])
        d_beta = t_leg * (2.0 - 1.0)
        d_alpha = 1.0 * (2.0 - 1.0)
        oracle_ratio = (d_beta / d_alpha) ** 2  # squared-norm semantics
        got = euler_action_on_torsion(cx, bundle, alpha, u)
        assert abs(got - oracle_ratio) <= 1e-12
        want = det_of_class(cx, bundle, u) ** EULER_ACTION_EXPONENT
        assert abs(got - want) <= 1e-12
        assert EULER_ACTION_EXPONENT == -2

    def test_multiplicative_in_u(self):
        cx, _, spray = triple("circle-1cell")
        bundle = FlatBundle(1, {"e": [[2]]})
        r = [
            euler_action_on_torsion(cx, bundle, spray, h1_class_for(cx, (n,)))
            for n in (1, 2, 3)
        ]
        assert abs(r[0] * r[1] - r[2]) <= 1e-9 * r[2]

    def test_nonacyclic_shared_reference_ratio(self):
        cx, _, spray = triple("torus")
        bundle = FlatBundle(1, {"a": [[2]], "b": [[1]]})  # kernel in one slot
        u = h1_class_for(cx, (0, 1))
        ratio = euler_action_on_torsion(cx, bundle, spray, u)
        want = det_of_class(cx, bundle, u) ** EULER_ACTION_EXPONENT
        assert abs(ratio - want) <= 1e-9 * max(want, 1.0)

    def test_tiny_exact_holonomy_ratio(self):
        # the float copy of (1/100000) I must not be refused as singular
        cx, _, spray = triple("circle-1cell")
        tiny = Fraction(1, 100000)
        bundle = FlatBundle(3, {"e": [[tiny * (i == j) for j in range(3)] for i in range(3)]})
        u = h1_class_for(cx, (1,))
        ratio = euler_action_on_torsion(cx, bundle, spray, u)
        want = det_of_class(cx, bundle, u) ** EULER_ACTION_EXPONENT
        assert abs(want / 1e30 - 1.0) <= 1e-12
        assert abs(ratio / want - 1.0) <= 1e-9


class TestFrameCovariance:
    def test_point_scales_by_inverse_square(self):
        cx, _, spray = triple("point")
        bundle = FlatBundle(1, {})
        res = ft_torsion(cx, bundle, spray)
        refs = {d: b for d, b in res.harmonic_bases.items() if b.size}
        v0 = ft_torsion(cx, bundle, spray, reference_cycles=refs).ft_metric.value
        framed = bundle.with_reference_basis([[2.0]])
        v1 = ft_torsion(cx, framed, spray, reference_cycles=refs).ft_metric.value
        assert abs(v1 / v0 - 2.0 ** (-2)) <= 1e-12

    def test_chi_zero_insensitive(self):
        cx, bundle, spray = triple("torus")
        res = ft_torsion(cx, bundle, spray)
        refs = {d: b for d, b in res.harmonic_bases.items() if b.size}
        v0 = ft_torsion(cx, bundle, spray, reference_cycles=refs).ft_metric.value
        framed = bundle.with_reference_basis([[5.0]])
        v1 = ft_torsion(cx, framed, spray, reference_cycles=refs).ft_metric.value
        assert abs(v1 - v0) <= 1e-9 * v0

    @pytest.mark.parametrize("name", ["sphere", "rp2", "torus", "klein", "tetra-solid"])
    def test_base_change_law_at_ranks_2_3(self, name):
        # references in default coordinates; frame_coords moves them into the frame
        rng = np.random.default_rng(47)
        item = corpus_get(name)
        cx, spray, chi = item.complex, item.spray, item.complex.euler_characteristic()
        for k in (2, 3):
            bundle = random_flat_bundle(name, cx, rng, rank=k)
            res = ft_torsion(cx, bundle, spray)
            refs = {d: b for d, b in res.harmonic_bases.items() if b.size} or None
            v0 = ft_torsion(cx, bundle, spray, reference_cycles=refs).ft_metric.value
            s = lx.to_float(random_invertible(rng, k))
            framed = bundle.with_reference_basis(s)
            v1 = ft_torsion(cx, framed, spray, reference_cycles=refs).ft_metric.value
            want = v0 * abs(np.linalg.det(s)) ** (-2 * chi)
            assert abs(v1 - want) <= 1e-9 * want, (k, v1, want)


class TestReferenceValidation:
    def test_wrong_reference_count_rejected(self):
        cx, bundle, spray = triple("torus")
        res = ft_torsion(cx, bundle, spray)
        refs = {d: b for d, b in res.harmonic_bases.items() if b.size}
        refs[1] = refs[1][:1]  # degree 1 needs two classes
        with pytest.raises(TorsionLabError):
            ft_torsion(cx, bundle, spray, reference_cycles=refs)

    def test_non_cycle_reference_rejected(self):
        cx, _, spray = triple("circle-2vertex")
        bundle = FlatBundle(1, {"e1": [[1]], "e2": [[1]]})
        res = ft_torsion(cx, bundle, spray)
        assert res.betti[1] == 1
        refs = {d: b.copy() for d, b in res.harmonic_bases.items() if b.size}
        refs[1] = np.array([[1.0, 0.0]])  # d(e1) != 0: not a cycle
        with pytest.raises(TorsionLabError):
            ft_torsion(cx, bundle, spray, reference_cycles=refs)

    def test_reference_in_acyclic_degree_rejected(self):
        cx, _, spray = triple("circle-1cell")
        bundle = FlatBundle(1, {"e": [[2]]})
        with pytest.raises(TorsionLabError):
            ft_torsion(cx, bundle, spray, reference_cycles={1: np.array([[1.0]])})

    def test_dependent_classes_rejected(self):
        cx, bundle, spray = triple("torus")
        res = ft_torsion(cx, bundle, spray)
        refs = {d: b.copy() for d, b in res.harmonic_bases.items() if b.size}
        refs[1][1] = refs[1][0]
        with pytest.raises(TorsionLabError):
            ft_torsion(cx, bundle, spray, reference_cycles=refs)


class TestSprayTransport:
    def test_transported_references_are_cycles(self):
        cx, _, alpha = triple("klein")
        bundle = FlatBundle(1, {"a": [[-1]], "b": [[1]]})
        res = ft_torsion(cx, bundle, alpha)
        refs = {d: b for d, b in res.harmonic_bases.items() if b.size}
        beta = act(cx, h1_class_for(cx, (1, 1)), alpha)
        tcc_a = assemble(cx, bundle, alpha)
        refs_b = transport_reference_between_sprays(tcc_a, cx, bundle, alpha, beta, refs)
        tcc_b = assemble(cx, bundle, beta)
        for d, rows in refs_b.items():
            bd = tcc_b.boundary(d)
            if bd.size and len(rows):
                assert np.abs(np.asarray(rows) @ bd).max() <= 1e-9


def kernel_trick_vol_sq(m):
    """The earlier exact vol^2: det'(G) = det(G + K K^T) / det(K^T K) for
    G = m^T m and K the echelon kernel basis of G, kept as a reference."""
    r, c = lx.shape(m)
    if r == 0 or c == 0:
        return Fraction(1)
    g = lx.matmul(lx.transpose(m), m)
    ech, piv = lx._echelon(g)
    free = [j for j in range(c) if j not in piv]
    if not free:
        return lx.det(g)
    k = [
        [-ech[piv.index(i)][j] if i in piv else Fraction(int(i == j)) for j in free]
        for i in range(c)
    ]
    kt = lx.transpose(k)
    kkt = lx.matmul(k, kt)
    num = lx.det([[x + y for x, y in zip(gr, kr)] for gr, kr in zip(g, kkt)])
    return num / lx.det(lx.matmul(kt, k))


class TestRankFactorizationVolumes:
    def test_vol_sq_equals_kernel_trick_every_rank_profile(self):
        # m = A B has rank k; zeroed columns of B move the pivots around
        rng = np.random.default_rng(21)

        def rational(r, c):
            return [
                [Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4))) for _ in range(c)]
                for _ in range(r)
            ]

        for r in range(1, 5):
            for c in range(1, 5):
                assert lx.vol_sq(lx.zeros(r, c)) == 1 == kernel_trick_vol_sq(lx.zeros(r, c))
                for k in range(1, min(r, c) + 1):
                    for _ in range(3):
                        b = rational(k, c)
                        for j in rng.choice(c, size=int(rng.integers(0, c)), replace=False):
                            for row in b:
                                row[j] = Fraction(0)
                        m = lx.matmul(rational(r, k), b)
                        assert lx.vol_sq(m) == kernel_trick_vol_sq(m)
        assert lx.vol_sq([[1, 2], [3, 4]]) == 4 and type(lx.vol_sq([[1, 2], [3, 4]])) is Fraction

    def test_t_comb_squared_equals_kernel_trick_on_corpus(self):
        for name in corpus_list():
            item = corpus_get(name)
            cx, bundle, spray = item.complex, item.bundle, item.spray
            if not bundle.exact:
                continue
            for _ in range(2):
                tcc = assemble(cx, bundle, spray)
                want = Fraction(1)
                for d, b in tcc.boundaries_exact.items():
                    if b and b[0]:
                        v = kernel_trick_vol_sq(b)
                        want = want * v if d % 2 else want / v
                assert t_comb_squared_exact(tcc) == want, name
                try:
                    cx, bundle, spray, _ = barycentric_subdivide(cx, bundle, spray)
                except UnsupportedStructureError:
                    break
