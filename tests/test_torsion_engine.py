import gc
import math
import warnings
import weakref
from dataclasses import replace

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
    DenseSizeError,
    FloatRangeError,
    IllConditionedError,
    NotFlatError,
    TorsionLabError,
    UnsupportedStructureError,
)
from torsionlab.euler_struct import act, canonical_spray, h1_class_for, h1_zero
from torsionlab.flat_bundle import FlatBundle, transport
from torsionlab import flat_bundle, torsion_engine
from torsionlab.suites import _det_minus_identity
from torsionlab.torsion_engine import (
    EULER_ACTION_EXPONENT,
    _gram,
    _laplacian,
    assemble,
    det_of_class,
    euler_action_on_torsion,
    ft_torsion,
    ft_torsion_of_tcc,
    ft_torsion_pair,
    harmonic_data,
    harmonic_metric,
    laplacians,
    t_comb,
    t_comb_squared_exact,
    to_frame,
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
        want = [[1.0, 1.0], [1.0, 0.0]]
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
            assert not any(x for row in lx.matmul(up, dn) for x in row)


def _field_ops(bundle):
    """(product, inverse) on the bundle's matrices: lists of Fractions or float arrays."""
    return (lx.matmul, lx.inverse) if bundle.exact else (np.matmul, np.linalg.inv)


def loop_transport(bundle, path):
    """transport() as a plain left-to-right loop of products of edge_matrices, with no walk cache."""
    mul, inv = _field_ops(bundle)
    mats = bundle.edge_matrices
    out = np.eye(bundle.rank, dtype=int).tolist() if bundle.exact else np.eye(bundle.rank)
    for e, d in path.steps:
        out = mul(out, mats[e] if d == 1 else inv(mats[e]))
    return out


def per_incidence_boundaries(cx, bundle, spray):
    """Boundaries built one incidence at a time as leg . transport(path) . leg^-1,
    every transport taken from scratch, accumulated in assemble's order."""
    k = bundle.rank
    mul, inv = _field_ops(bundle)
    legs = {cid: loop_transport(bundle, leg) for cid, leg in spray.legs}
    out = {}
    for d in range(1, cx.dim + 1):
        ri = {c.id: i for i, c in enumerate(cx.cells_of_dim(d))}
        ci = {c.id: j for j, c in enumerate(cx.cells_of_dim(d - 1))}
        shape = (k * len(ri), k * len(ci))
        m = [[Fraction(0)] * shape[1] for _ in range(shape[0])] if bundle.exact else np.zeros(shape)
        for rec in cx.incidences:
            if rec.coface not in ri:
                continue
            path = loop_transport(bundle, rec.path)
            block = mul(mul(legs[rec.coface], path), inv(legs[rec.face]))
            i0, j0 = k * ri[rec.coface], k * ci[rec.face]
            if bundle.exact:
                for a in range(k):
                    for b in range(k):
                        m[i0 + a][j0 + b] += rec.coeff * block[a][b]
            else:
                m[i0 : i0 + k, j0 : j0 + k] += rec.coeff * block
        out[d] = m
    return out


def one_at_a_time(bundle, steps, inverse=False, memo=None):
    """Transport taken one product per step from the identity, left to right (for
    inverses matrix(step reversed) . prefix), in Fractions or floats; kept in memo."""
    key = (steps, inverse)
    if memo is None or key not in memo:
        out = np.eye(bundle.rank, dtype=int).tolist() if bundle.exact else np.eye(bundle.rank)
        mul = lx.matmul if bundle.exact else np.matmul
        for e, d in steps:
            out = mul(bundle.matrix(e, -d), out) if inverse else mul(out, bundle.matrix(e, d))
        if memo is None:
            return out
        memo[key] = out
    return memo[key]


def per_record_blocks(cx, bundle, spray):
    """Each degree's (rows, cols, nums, den) built record by record: leg . path . leg^-1
    from one-at-a-time transports, summed per (cell, face) pair in record order; exact
    blocks over the least common denominator, float ones over 1."""
    k, memo, out = bundle.rank, {}, {}
    mul = lx.matmul if bundle.exact else np.matmul
    legs = dict(spray.legs)
    for d in range(1, cx.dim + 1):
        ri = {c.id: i for i, c in enumerate(cx.cells_of_dim(d))}
        ci = {c.id: j for j, c in enumerate(cx.cells_of_dim(d - 1))}
        sums = {}
        for rec in cx.incidences:
            if rec.coface not in ri:
                continue
            block = mul(
                mul(one_at_a_time(bundle, legs[rec.coface].steps, memo=memo),
                    one_at_a_time(bundle, rec.path.steps, memo=memo)),
                one_at_a_time(bundle, legs[rec.face].steps, inverse=True, memo=memo),
            )
            key = (ri[rec.coface], ci[rec.face])
            if bundle.exact:
                acc = sums.setdefault(key, [[Fraction(0)] * k for _ in range(k)])
                sums[key] = [[x + rec.coeff * y for x, y in zip(r, q)] for r, q in zip(acc, block)]
            else:
                sums[key] = sums.get(key, np.zeros((k, k))) + rec.coeff * block
        keys = sorted(sums)
        nums, den = [sums[key] for key in keys], 1
        if bundle.exact:
            den = math.lcm(*(x.denominator for m in nums for r in m for x in r))
            nums = [[[x * den for x in r] for r in m] for m in nums]
        out[d] = ([i for i, _ in keys], [j for _, j in keys], nums, den)
    return out


def corpus_triples(rounds=2, max_cells=1500):
    """(label, complex, bundle, spray) for every corpus item at ranks 1-3, exact and
    float, before and after each round of subdivision up to rounds (and max_cells)."""
    for name in corpus_list():
        item = corpus_get(name)
        ranks = {}
        for rank in (1, 2, 3):
            b = random_flat_bundle(name, item.complex, np.random.default_rng(rank), rank=rank)
            ranks.setdefault(b.rank, b)
        for exact in ranks.values():
            for bundle in (exact, FlatBundle(exact.rank, exact.edge_matrices, exact=False)):
                cx, spray = item.complex, item.spray
                for r in range(rounds + 1):
                    if r:
                        too_big = len(cx.cells) * 14 > max_cells  # a round multiplies cells by 6-14
                        if too_big or (cx.dim == 3 and not cx.simplex_vertices):
                            break
                        cx, bundle, spray, _ = barycentric_subdivide(cx, bundle, spray)
                    mode = "exact" if bundle.exact else "float"
                    yield f"{name}-r{bundle.rank}-{mode}@{r}", cx, bundle, spray


class TestBatchedTransports:
    def test_block_records_equal_the_per_record_reference(self):
        seen = set()
        for label, cx, bundle, spray in corpus_triples():
            tcc = assemble(cx, bundle, spray)
            want = per_record_blocks(cx, bundle, spray)
            assert sorted(tcc.blocks) == sorted(want), label
            for d, (rows, cols, nums, den) in want.items():
                rec = tcc.blocks[d]
                assert rec.rows.tolist() == rows and rec.cols.tolist() == cols, label
                assert rec.den == den and rec.nums.shape == (len(rows), bundle.rank, bundle.rank)
                want_nums = np.array(nums, dtype=rec.nums.dtype).reshape(rec.nums.shape)
                assert np.array_equal(rec.nums, want_nums), label
            seen.add(label.split("-r")[0] + label[-2:])
        assert {"torus@2", "klein@2", "sphere@2", "tetra-solid@1", "lens-7-2@0", "point@0"} <= seen

    def test_flatness_reports_equal_the_per_cell_reference(self):
        torus = corpus_get("torus").complex
        b = [[1, 0], [Fraction(1, 3), 1]]
        nonflat = (torus, FlatBundle(2, {"a": [[1, 1], [0, 1]], "b": b}))
        cases = [(cx, bundle) for _, cx, bundle, _ in corpus_triples(rounds=1)] + [
            nonflat, (torus, nonflat[1].as_float())]
        for cx, bundle in cases:
            got = flat_bundle.check_flatness(cx, bundle)
            want = {}
            for cell in cx.cells_of_dim(2):
                hol = one_at_a_time(bundle, cx.attaching_walk(cell.id).steps)
                if bundle.exact:
                    dev = max(abs(x - (i == j)) for i, r in enumerate(hol) for j, x in enumerate(r))
                    want[cell.id] = float(dev) if dev else 0
                else:
                    want[cell.id] = float(np.max(np.abs(hol - np.eye(bundle.rank))))
            assert got.deviations == want and list(got.deviations) == list(want)
            assert [type(v) for v in got.deviations.values()] == [type(v) for v in want.values()]
        assert not flat_bundle.check_flatness(*nonflat).ok


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
        assert sorted(tcc.blocks) == sorted(want)
        for d, m in want.items():
            assert np.array_equal(tcc.boundary(d), m)

    def test_walks_past_int64_bound_equal_per_incidence(self):
        # walk products reach 2**80, past the int64 rule, so blocks sum in Python ints
        cx, _, spray = triple("torus")
        bundle = FlatBundle(2, {"a": [[2**40, 1], [2**40 - 1, 1]], "b": [[1, 0], [0, 1]]})
        cx, bundle, spray, _ = barycentric_subdivide(cx, bundle, spray)
        tcc = assemble(cx, bundle, spray)
        assert any(rec.nums.dtype == object for rec in tcc.blocks.values())
        want = per_incidence_boundaries(cx, bundle, spray)
        assert tcc.boundaries_exact == want
        for d, m in want.items():
            assert np.array_equal(tcc.boundary(d), [[float(x) for x in row] for row in m])

    def test_denominators_equal_per_incidence(self):
        cx, _, spray = triple("torus")
        bundle = FlatBundle(2, {"a": [[Fraction(1, 3), 0], [0, 3]], "b": [[1, 0], [0, 1]]})
        cx, bundle, spray, _ = barycentric_subdivide(cx, bundle, spray)
        tcc = assemble(cx, bundle, spray)
        assert any(rec.den > 1 for rec in tcc.blocks.values())
        want = per_incidence_boundaries(cx, bundle, spray)
        assert tcc.boundaries_exact == want
        for d, m in want.items():
            assert np.array_equal(tcc.boundary(d), [[float(x) for x in row] for row in m])

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
                assert tcc.boundary(d).shape == want.shape
                assert np.array_equal(tcc.boundary(d), want)

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
                assert sorted(tcc.blocks) == sorted(want)
                for d, m in want.items():
                    assert np.array_equal(tcc.boundary(d), m)
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
    def test_guard_band_raises(self):
        # holonomy 1 + 5e-10 on the float circle: the one pivot of D_1 lies inside
        # (0.1, 10) x the cutoff 1e-10 * max(1, largest |entry|)
        cx, _, spray = triple("circle-1cell")
        tcc = assemble(cx, FlatBundle(1, {"e": np.array([[1 + 5e-10]])}, exact=False), spray)
        with pytest.raises(IllConditionedError, match="guard band"):
            t_comb(tcc, "det")
        tcc = assemble(cx, FlatBundle(1, {"e": np.array([[1 + 5e-8]])}, exact=False), spray)
        want = (1 + 5e-8) - 1  # past the band: the pivot itself
        assert abs(t_comb(tcc, "det") - want) <= 1e-12 * want

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0, 1.0])
    def test_rank_tolerance_outside_zero_one_rejected(self, tol):
        # nan and inf used to read every eigenvalue as zero: klein gave betti {1, 2, 1};
        # the det route ignored the tolerance, and gave 0.5 at nan
        cx, bundle, spray = triple("klein")
        tcc = assemble(cx, bundle, spray)
        for cutoff in (lambda: t_comb(tcc, "det", tol), lambda: harmonic_data(tcc, tol),
                       lambda: t_comb(tcc, "eig", tol)):
            with pytest.raises(ValueError, match=r"rank tolerance must be a finite number in \(0, 1\)"):
                cutoff()


class TestTComb:
    def test_circle_three_equals_det_oracle(self):
        cx, _, spray = triple("circle-1cell")
        bundle = FlatBundle(1, {"e": [[3]]})
        tcc = assemble(cx, bundle, spray)
        oracle = abs(float(_det_minus_identity(bundle.edge_matrices["e"])))
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
        rec = replace(tcc.blocks[1], nums=np.full((1, 1, 1), 10**700, dtype=object), den=1)
        tcc = replace(tcc, blocks={1: rec})  # a changed complex is a copy, with no tau-chain yet
        with pytest.raises(FloatRangeError):
            t_comb(tcc, "exact")

    def test_huge_rational_entry_is_typed_error(self):
        # the blocks stay exact, so the exact route holds; the float view cannot
        cx, _, spray = triple("circle-1cell")
        tcc = assemble(cx, FlatBundle(1, {"e": [[10**400]]}), spray)
        assert t_comb_squared_exact(tcc) == (10**400 - 1) ** 2
        for route in (lambda: tcc.boundary(1), lambda: ft_torsion_of_tcc(tcc),
                      lambda: t_comb(tcc, "det"), lambda: t_comb(tcc, "exact")):
            with pytest.raises(FloatRangeError):
                route()

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
            want = abs(float(_det_minus_identity(m)))
            if want == 0:
                continue
            tcc = assemble(cx, FlatBundle(2, {"e": m}), spray)
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
        # vol(D_1) = 1e480 leaves the range, but the det route sums log-volumes
        assert abs(t_comb(tcc, "det") - 1.0) <= 1e-9
        floats = FlatBundle(8, {"a": 1e60 * np.eye(8), "b": np.eye(8)})
        assert abs(t_comb(assemble(cx, floats, spray), "det") - 1.0) <= 1e-9

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
    """Replace owner.name by a wrapper that records the arguments of each call."""
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def eigh_reference(tcc, rank_tol=1e-10):
    """d -> (Betti number, nonzero spectrum, kernel projector) from eigh of every Delta_d.

    Delta_d is formed from the public dense boundaries and solved by one eigh: no Gram
    eigvalsh, guard band or canonical basis of ``harmonic_data``.
    """
    out = {}
    for d in range(tcc.top_dim + 1):
        dn, up = tcc.boundary(d), tcc.boundary(d + 1)  # empty past either end
        w, v = np.linalg.eigh(dn @ dn.T + up.T @ up)
        kdim = int(np.sum(w <= rank_tol * w[-1])) if len(w) and w[-1] > 0 else len(w)
        out[d] = (kdim, w[kdim:], v[:, :kdim] @ v[:, :kdim].T)
    return out


def corpus_bundles(name, seed, ranks):
    """Seeded exact bundles at the given ranks and their float copies; lens rotations for lens items."""
    item = corpus_get(name)
    rng = np.random.default_rng(seed)
    if not item.bundle.exact:
        p, q = (int(x) for x in name.split("-")[1:])
        return [item.bundle] + [lens_rotation_bundle(p, q, turns=t) for t in (1, 2)]
    bundles = [random_flat_bundle(name, item.complex, rng, rank=k) for k in ranks]
    return bundles + [b.as_float() for b in bundles]


class TestGrams:
    @pytest.mark.parametrize("name", corpus_list())
    def test_grams_and_laplacians_equal_dense_products(self, name):
        # ranks 1-3 after 0-2 rounds; tetra-solid@2 (2745 cells) runs at rank 1 only, since at
        # rank 2 its dense references take ~400 MB and at rank 3 ~1 GB
        def check(g, ref):
            assert np.array_equal(g, g.T)
            assert np.abs(g - ref).max(initial=0.0) <= 1e-12 * np.abs(ref).max(initial=0.0)

        item = corpus_get(name)
        for bundle in corpus_bundles(name, 47, (1, 2, 3)):
            cx, spray = item.complex, item.spray
            for rounds in range(3):
                if bundle.rank * len(cx.cells) > 3000:
                    break
                tcc = assemble(cx, bundle, spray)
                for d in range(tcc.top_dim + 1):
                    dn, up = tcc.boundary(d), tcc.boundary(d + 1)
                    lower = dn @ dn.T
                    check(_gram(tcc, d, d), lower)
                    upper = up.T @ up
                    check(_gram(tcc, d + 1, d), upper)
                    lower += upper
                    check(_laplacian(tcc, d), lower)
                if rounds == 2:
                    break
                try:
                    cx, bundle, spray, _ = barycentric_subdivide(cx, bundle, spray)
                except UnsupportedStructureError:
                    break

    def test_ft_route_lays_out_no_dense_boundary(self, monkeypatch):
        cx, bundle, spray = torus_triple()
        bundle = bundle.as_float()  # ft reads the float tau-chain, the spectra a layout per degree
        for _ in range(3):
            cx, bundle, spray, _ = barycentric_subdivide(cx, bundle, spray)
        laid = counting(monkeypatch, torsion_engine.TwistedChainComplex, "_layout")
        res = ft_torsion(cx, bundle, spray)
        tcc = assemble(cx, bundle, spray)  # the bundle's kept assembly
        assert laid == [] and "boundaries_exact" not in vars(tcc)
        assert abs(res.t_comb - 1.0) <= 1e-9
        # a later spectra read lays out each boundary once, for its one Gram matrix
        assert len(tcc.cell_order[2]) == 288 and len(res.spectra[2]) == 576
        assert [args[1:] for args in laid] == [(1,), (2,)]


class TestFloatTauChain:
    @pytest.mark.parametrize("name", corpus_list())
    def test_det_route_matches_exact_and_eig(self, name, monkeypatch):
        # seeded rational bundles at ranks 1-3 and their float copies, after 0-2 rounds;
        # tetra-solid@2 (2745 cells) at rank 1 only.  The det route eliminates every
        # record's floats, rational ones included, and lays out no dense boundary.
        laid = counting(monkeypatch, torsion_engine.TwistedChainComplex, "_layout")
        item = corpus_get(name)
        for bundle in corpus_bundles(name, 47, (1, 2, 3)):
            cx, spray = item.complex, item.spray
            for rounds in range(3):
                if bundle.rank * len(cx.cells) > 3000:
                    break
                tcc = assemble(cx, bundle, spray)
                before = len(laid)
                got, betti = t_comb(tcc, "det"), torsion_engine._tau_chain(tcc, 1e-10)[1]
                assert len(laid) == before
                if tcc.exact:
                    want, want_betti = t_comb(tcc, "exact"), torsion_engine._tau_chain(tcc)[1]
                else:
                    want, want_betti = t_comb(tcc, "eig"), harmonic_data(tcc)[1]
                assert abs(got - want) <= 1e-9 * want and betti == want_betti
                if rounds == 2:
                    break
                try:
                    cx, bundle, spray, _ = barycentric_subdivide(cx, bundle, spray)
                except UnsupportedStructureError:
                    break


class TestOneSpectralPass:
    # float copies of rational bundles: ft_torsion reads the float tau-chain on either field,
    # and only the eig route, harmonic_data and TorsionResult.spectra run eigensolvers
    def test_acyclic_torus_runs_no_eigh(self, monkeypatch):
        cx, _, spray = triple("torus")
        bundle = FlatBundle(2, {"a": [[2, 1], [1, 1]], "b": [[1, 0], [0, 1]]}).as_float()
        eighs = counting(monkeypatch, np.linalg, "eigh")
        eigvalshs = counting(monkeypatch, np.linalg, "eigvalsh")
        grams = counting(monkeypatch, torsion_engine, "_gram")
        tcc = assemble(cx, bundle, spray)
        res = ft_torsion_of_tcc(tcc)
        assert res.acyclic and eighs == eigvalshs == grams == []
        assert abs(t_comb(tcc, "eig") - res.t_comb) <= 1e-9 * res.t_comb  # one values-only pass
        assert len(eighs) == 0 and len(eigvalshs) == tcc.top_dim == 2
        t_comb(tcc, "eig")  # the ft memo does not serve it: another values-only pass, still no eigh
        assert len(eighs) == 0 and len(eigvalshs) == 2 * tcc.top_dim

    def test_sphere_eigh_only_in_kernel_degrees(self, monkeypatch):
        # ft runs no eigh; its oracle harmonic_data runs eigh only where b_d > 0
        cx, _, spray = triple("sphere")
        tcc = assemble(cx, FlatBundle(1, {e.id: [[1]] for e in cx.cells_of_dim(1)}).as_float(), spray)
        eighs = counting(monkeypatch, np.linalg, "eigh")
        res = ft_torsion_of_tcc(tcc)
        assert res.betti == {0: 1, 1: 0, 2: 1} and eighs == []
        assert harmonic_data(tcc)[1] == res.betti
        laps = laplacians(tcc)
        assert [args[0].shape for args in eighs] == [laps[0].shape, laps[2].shape]
        for (lap,), d in zip(eighs, (0, 2)):
            assert np.array_equal(lap, laps[d])

    @pytest.mark.parametrize("name", corpus_list())
    def test_gram_spectra_match_laplacian_eigh(self, name):
        # seeded exact bundles at ranks 1-2 and their float copies; lens items carry rotations
        item = corpus_get(name)
        rng = np.random.default_rng(43)
        if item.bundle.exact:
            bundles = [item.bundle]
            bundles += [random_flat_bundle(name, item.complex, rng, rank=k) for k in (1, 2)]
            bundles += [b.as_float() for b in bundles]
        else:
            p, q = (int(x) for x in name.split("-")[1:])
            bundles = [item.bundle] + [lens_rotation_bundle(p, q, turns=t) for t in (1, 2)]
        for bundle in bundles:
            cx, spray = item.complex, item.spray
            for _ in range(2):
                tcc = assemble(cx, bundle, spray)
                spectra, betti, bases = harmonic_data(tcc)
                for d, (kdim, nonzero, proj) in eigh_reference(tcc).items():
                    assert betti[d] == kdim
                    assert spectra[d][:kdim] == (0.0,) * kdim
                    assert np.allclose(spectra[d][kdim:], nonzero, rtol=1e-10, atol=0.0)
                    assert np.allclose(bases[d].T @ bases[d], proj)
                    assert np.allclose(bases[d] @ bases[d].T, np.eye(kdim))
                    assert not bases[d].flags.writeable
                try:
                    cx, bundle, spray, _ = barycentric_subdivide(cx, bundle, spray)
                except UnsupportedStructureError:
                    break

    def test_guard_band_fires_through_ft_torsion(self):
        # holonomy 1 + 5e-10 on the float circle, as in TestDetPrime: the one pivot of D_1 lies
        # inside (0.1, 10) x the eliminator's cutoff 1e-10 * max(1, largest |entry|)
        cx, _, spray = triple("circle-1cell")
        bundle = FlatBundle(1, {"e": np.array([[1 + 5e-10]])}, exact=False)
        with pytest.raises(IllConditionedError, match="pivot .* guard band"):
            ft_torsion(cx, bundle, spray)
        # D_1 = diag(2, 2e-5) sits at the spectral cutoff (Gram eigenvalue 4e-10 against
        # 1e-10 * 4), far above the eliminator's 3e-10: ft succeeds and only the spectra raise
        res = ft_torsion(cx, FlatBundle(2, {"e": [[3.0, 0.0], [0.0, 1.0 + 2e-5]]}), spray)
        assert res.acyclic and rel_gap(res.t_comb, 2 * ((1.0 + 2e-5) - 1.0)) <= 1e-12
        with pytest.raises(IllConditionedError, match="eigenvalue .* guard band"):
            res.spectra

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
        metric, betti, bases = harmonic_metric(tcc)
        assert metric.value == 1.0
        assert all(b == 0 for b in betti.values())

    def test_point_rank_one(self):
        cx, _, spray = triple("point")
        tcc = assemble(cx, FlatBundle(1, {}), spray)
        metric, betti, bases = harmonic_metric(tcc)
        assert betti == {0: 1}
        assert metric.value == 1.0

    def test_circle_trivial_kernels_are_ones_vectors(self):
        cx, _, spray = triple("circle-1cell")
        tcc = assemble(cx, FlatBundle(1, {"e": [[1]]}), spray)
        _, betti, bases = harmonic_metric(tcc)
        assert betti == {0: 1, 1: 1}
        for d in (0, 1):
            assert np.allclose(np.abs(bases[d]), [[1.0]])

    def test_tiny_reference_rows_give_one(self):
        # each Gram determinant is 1e-400; normalized rows keep it from underflowing to 0
        cx, _, spray = triple("circle-1cell")
        tcc = assemble(cx, FlatBundle(1, {"e": [[1]]}), spray)
        refs = {0: np.array([[1e-200]]), 1: np.array([[1e-200]])}
        assert harmonic_metric(tcc, refs)[0].value == 1.0

    def test_huge_reference_row_is_float_range_error(self):
        cx, _, spray = triple("circle-1cell")
        tcc = assemble(cx, FlatBundle(1, {"e": [[1]]}), spray)
        refs = {0: np.array([[1e200]]), 1: np.array([[1.0]])}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatRangeError):
                harmonic_metric(tcc, refs)

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

    @pytest.mark.parametrize(
        "seed, name, rank",
        [(0, "sphere", 1), (0, "sphere", 3), (0, "tetra-solid", 1), (0, "tetra-solid", 3),
         (1, "sphere", 3), (2, "rp2", 2)],
    )
    def test_zero_class_ratio_is_exactly_one(self, seed, name, rank):
        # act(0, alpha) is alpha, so both sides are one result; transporting the
        # reference through trivial frames used to leave a few ulps
        cx, _, spray = triple(name)
        bundle = random_flat_bundle(name, cx, np.random.default_rng(seed), rank=rank)
        assert euler_action_on_torsion(cx, bundle, spray, h1_zero(cx)) == 1.0
        res_a, res_b = ft_torsion_pair(cx, bundle, spray, act(cx, h1_zero(cx), spray))
        assert res_b is res_a


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

    @pytest.mark.parametrize("name", ["sphere", "rp2", "tetra-solid"])
    def test_rational_frame_keeps_the_exact_route(self, name):
        rng = np.random.default_rng(53)
        item = corpus_get(name)
        cx, spray = item.complex, item.spray
        for k in (1, 2, 3):
            bundle = random_flat_bundle(name, cx, rng, rank=k)
            s = random_invertible(rng, k)
            plain = assemble(cx, bundle, spray)
            tcc = assemble(cx, bundle.with_reference_basis(s), spray)
            assert tcc.exact and np.array_equal(tcc.frame, lx.to_float(s))
            # every k x k block B becomes S^T B S^-T, in Fractions
            s_t = transpose(s)
            inv_t = lx.inverse(s_t)
            for d, m in plain.boundaries_exact.items():
                got = tcc.boundaries_exact[d]
                for i in range(0, len(m), k):
                    for j in range(0, len(m[0]), k):
                        block = [row[j : j + k] for row in m[i : i + k]]
                        want = lx.matmul(lx.matmul(s_t, block), inv_t)
                        assert [row[j : j + k] for row in got[i : i + k]] == want
                assert np.array_equal(tcc.boundary(d), lx.to_float(got))
            te, td = t_comb(tcc, "exact"), t_comb(tcc, "det")
            floats = assemble(cx, bundle.with_reference_basis(lx.to_float(s)), spray)
            assert abs(te - td) <= 1e-9 * te and abs(te - t_comb(floats, "eig")) <= 1e-9 * te

    def test_float_frame_equals_dense_conjugation(self):
        # the earlier route conjugated the dense float boundary; blocks must match it bit for bit
        rng = np.random.default_rng(59)
        for name in ("sphere", "klein", "tetra-solid"):
            cx, _, spray = triple(name)
            for k in (1, 2, 3):
                exact = random_flat_bundle(name, cx, rng, rank=k)
                frame = lx.to_float(random_invertible(rng, k))
                for bundle in (exact, exact.as_float()):
                    plain = assemble(cx, bundle, spray)
                    framed = assemble(cx, bundle.with_reference_basis(frame), spray)
                    assert not framed.exact and framed.boundaries_exact is None
                    inv_t = np.linalg.inv(frame.T)
                    for d in plain.blocks:
                        b = plain.boundary(d)
                        left = frame.T @ b.reshape(b.shape[0] // k, k, b.shape[1])
                        want = (left.reshape(-1, k) @ inv_t).reshape(b.shape)
                        assert np.array_equal(framed.boundary(d), want)


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
        with pytest.raises(TorsionLabError, match="not cycles"):
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


def transpose(m):
    return [list(col) for col in zip(*m)]


def det(m):
    return lx.scaled_det(lx.scaled(m))


def gram_det(groups):
    """det of sum_g outer(g, g) over sparse vectors g = [(index, value), ...]."""
    g = {}
    for grp in groups:
        for a, x in grp:
            ga = g.setdefault(a, {})
            for b, y in grp:
                ga[b] = ga.get(b, 0) + x * y
    return abs(lx._markowitz({a: {b: v for b, v in ga.items() if v} for a, ga in g.items()})[1])


def sparse_vol_sq(rows, den=1):
    """Squared product of the nonzero singular values of a sparse rational matrix.

    The Gram route that the exact torsion took before its tau-chain, kept as a
    reference: with P, Q the pivot rows and columns of the eliminator, A =
    m[P, Q], B = m[P, :] and C = m[:, Q], vol(m)^2 = det(C^T C) det(B B^T) /
    det(A)^2 at every rank, then divided by den^(2r).  A zero matrix gives 1.
    """
    m = {i: row for i, row in enumerate(rows) if row}
    pivots, det_a = lx._markowitz({i: dict(row) for i, row in m.items()})
    prows, pcols = [i for i, _, _ in pivots], [j for _, j, _ in pivots]
    r = len(prows)
    if not r:
        return Fraction(1)
    a2 = det_a * det_a
    cc = bb = a2
    if r < len(m):
        q = {j: n for n, j in enumerate(pcols)}
        cc = gram_det([[(q[j], v) for j, v in row.items() if j in q] for row in m.values()])
    if r < len({j for row in m.values() for j in row}):
        by_col = {}
        for n, i in enumerate(prows):
            for j, v in m[i].items():
                by_col.setdefault(j, []).append((n, v))
        bb = gram_det(by_col.values())
    return Fraction(cc * bb) / (a2 * den ** (2 * r))


def vol_sq(m):
    """sparse_vol_sq of Fraction or int rows, through the scaled form."""
    nums, den = lx.scaled(m)
    return sparse_vol_sq([{j: v for j, v in enumerate(row) if v} for row in nums.tolist()], den)


def gram_t_comb_squared(tcc):
    """t_comb^2 = prod_d vol(D_d)^(2 (-1)^(d+1)) from each degree's block record, by sparse_vol_sq."""
    out = Fraction(1)
    for d, rec in tcc.blocks.items():
        rows = {}
        for j, col in rec.sparse_columns().items():
            for i, v in col.items():
                rows.setdefault(i, {})[j] = v
        v = sparse_vol_sq(list(rows.values()), rec.den)
        out = out * v if d % 2 else out / v
    return out


def kernel_trick_vol_sq(m):
    """The earlier exact vol^2: det'(G) = det(G + K K^T) / det(K^T K) for
    G = m^T m and K the echelon kernel basis of G, kept as a reference."""
    r, c = lx.shape(m)
    if r == 0 or c == 0:
        return Fraction(1)
    g = lx.matmul(transpose(m), m)
    ech, piv = lx._echelon(g)
    free = [j for j in range(c) if j not in piv]
    if not free:
        return det(g)
    k = [
        [-ech[piv.index(i)][j] if i in piv else Fraction(int(i == j)) for j in free]
        for i in range(c)
    ]
    kt = transpose(k)
    kkt = lx.matmul(k, kt)
    num = det([[x + y for x, y in zip(gr, kr)] for gr, kr in zip(g, kkt)])
    return num / det(lx.matmul(kt, k))


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
                zero = [[Fraction(0)] * c for _ in range(r)]
                assert vol_sq(zero) == 1 == kernel_trick_vol_sq(zero)
                for k in range(1, min(r, c) + 1):
                    for _ in range(3):
                        b = rational(k, c)
                        for j in rng.choice(c, size=int(rng.integers(0, c)), replace=False):
                            for row in b:
                                row[j] = Fraction(0)
                        m = lx.matmul(rational(r, k), b)
                        assert vol_sq(m) == kernel_trick_vol_sq(m)
        assert vol_sq([[1, 2], [3, 4]]) == 4 and type(vol_sq([[1, 2], [3, 4]])) is Fraction

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


def tau_chain_triples(cx, bundle, spray, rounds=3):
    """(round, tcc) of a triple at rounds 0 .. rounds - 1 of barycentric subdivision."""
    for r in range(rounds):
        yield r, assemble(cx, bundle, spray)
        if r < rounds - 1:
            cx, bundle, spray, _ = barycentric_subdivide(cx, bundle, spray)


class TestSparseExactVolumes:
    def test_exact_route_builds_no_dense_exact_boundary(self):
        cx, _, spray = triple("torus")
        tcc = assemble(cx, FlatBundle(2, {"a": [[2, 1], [1, 1]], "b": [[1, 0], [0, 1]]}), spray)
        assert t_comb_squared_exact(tcc) == 1
        assert "boundaries_exact" not in vars(tcc)

    def test_torus_rank_two_is_one_at_every_round(self):
        cx, _, spray = triple("torus")
        bundle = FlatBundle(2, {"a": [[2, 1], [1, 1]], "b": [[1, 0], [0, 1]]})
        for _ in range(3):
            assert t_comb_squared_exact(assemble(cx, bundle, spray)) == 1
            cx, bundle, spray, _ = barycentric_subdivide(cx, bundle, spray)

    def test_tetra_solid_closed_form(self):
        # simply connected, so the bundle is trivial and t^2 = n0^k
        cx, _, spray = triple("tetra-solid")
        bundle = random_flat_bundle("tetra-solid", cx, np.random.default_rng(3), rank=2)
        for (r, tcc), want in zip(tau_chain_triples(cx, bundle, spray), (16, 225, 149**2)):
            got = t_comb_squared_exact(tcc)
            assert got == want == (tcc.dims[0] // 2) ** 2 and type(got) is Fraction

    def test_object_dtype_blocks_match_dense_volumes(self):
        cx, _, spray = triple("torus")
        bundle = FlatBundle(2, {"a": [[2**40, 1], [2**40 - 1, 1]], "b": [[1, 0], [0, 1]]})
        cx, bundle, spray, _ = barycentric_subdivide(cx, bundle, spray)
        tcc = assemble(cx, bundle, spray)
        assert any(rec.nums.dtype == object for rec in tcc.blocks.values())
        got = t_comb_squared_exact(tcc)
        for vol in (vol_sq, kernel_trick_vol_sq):
            want = Fraction(1)
            for d, b in tcc.boundaries_exact.items():
                want = want * vol(b) if d % 2 else want / vol(b)
            assert got == want

    def test_all_zero_degree_gives_one(self):
        cx, _, spray = triple("circle-1cell")
        tcc = assemble(cx, FlatBundle(2, {"e": [[1, 0], [0, 1]]}), spray)
        assert not tcc.blocks[1].nums.any()
        assert t_comb_squared_exact(tcc) == 1


class TestTauChain:
    """The tau-chain against the Gram route (``sparse_vol_sq`` above) and the spectral Betti numbers."""

    def assert_matches_references(self, tcc, label):
        got, betti, _ = torsion_engine._tau_chain(tcc)
        assert type(got) is Fraction and got == gram_t_comb_squared(tcc), label
        assert got == t_comb_squared_exact(tcc)
        assert betti == harmonic_data(tcc)[1], label

    def test_seeded_bundles_on_every_exact_corpus_item(self):
        # tetra-solid@2 runs at rank 1 only: the Gram reference takes seconds there at rank 2
        seen = set()
        for name in corpus_list():
            item = corpus_get(name)
            if not item.bundle.exact:
                continue
            for rank in (1, 2, 3):
                bundle = random_flat_bundle(name, item.complex, np.random.default_rng(rank), rank=rank)
                rounds = 3 if rank == 1 or name != "tetra-solid" else 2
                for r, tcc in tau_chain_triples(item.complex, bundle, item.spray, rounds):
                    self.assert_matches_references(tcc, f"{name} rank {rank} @{r}")
                    seen.add((name, r))
        assert {("tetra-solid", 2), ("sphere", 2), ("rp2", 2), ("torus", 2)} <= seen

    def test_trivial_bundles_with_classes_in_a_middle_degree(self):
        # the trivial rank-1 bundle has b_1 = 2 on the torus and 1 on the Klein bottle
        want = {"torus": {0: 1, 1: 2, 2: 1}, "klein": {0: 1, 1: 1, 2: 0},
                "sphere": {0: 1, 1: 0, 2: 1}, "circle-1cell": {0: 1, 1: 1}}
        for name, betti in want.items():
            cx, _, spray = triple(name)
            bundle = FlatBundle(1, {c.id: [[1]] for c in cx.cells_of_dim(1)})
            for r, tcc in tau_chain_triples(cx, bundle, spray):
                self.assert_matches_references(tcc, f"{name} @{r}")
                assert torsion_engine._tau_chain(tcc)[1] == betti
        cx, _, spray = triple("circle-1cell")
        self.assert_matches_references(assemble(cx, FlatBundle(2, {"e": [[1, 0], [0, 1]]}), spray), "")


def torus_at_2():
    """The corpus torus triple after two rounds of subdivision."""
    cx, bundle, spray = triple("torus")
    for _ in range(2):
        cx, bundle, spray, _ = barycentric_subdivide(cx, bundle, spray)
    return cx, bundle, spray


class TestDenseBudget:
    def test_over_budget_is_typed_error_before_allocating(self, monkeypatch):
        # the budget bites at the dense arrays: assemble and both fields' tau-chains read blocks
        # only, and the spectra lay out the boundaries and their Gram matrices
        tcc = assemble(*torus_at_2())
        want = t_comb_squared_exact(tcc)
        big = max(tcc.blocks, key=lambda d: tcc.dims[d] * tcc.dims[d - 1])
        biggest = 8 * tcc.dims[big] * tcc.dims[big - 1]
        gram = 8 * max(min(tcc.dims[d], tcc.dims[d - 1]) ** 2 for d in tcc.blocks)
        assert gram < biggest
        monkeypatch.setattr(torsion_engine, "DENSE_BUDGET_BYTES", gram - 1)
        tcc = assemble(*torus_at_2())
        got = t_comb_squared_exact(tcc)
        assert got == want and type(got) is Fraction
        cx, bundle, spray = torus_at_2()
        float_tcc = assemble(cx, bundle.as_float(), spray)
        zeros = counting(monkeypatch, np, "zeros")
        with pytest.raises(DenseSizeError, match="budget"):
            tcc.boundary(big)
        assert zeros == []
        float_res = ft_torsion_of_tcc(float_tcc)  # the float tau-chain: no Gram, no n x n array
        assert zeros and all(min(args[0]) <= max(float_res.betti.values()) for args in zeros)
        assert abs(float_res.t_comb**2 - want) <= 1e-9 * want
        with pytest.raises(DenseSizeError, match="Gram matrix .* budget"):
            float_res.spectra
        with pytest.raises(DenseSizeError):
            tcc.boundaries_exact
        res = ft_torsion_of_tcc(tcc)  # the tau-chain builds no dense array; the spectra do
        assert abs(res.t_comb**2 - want) <= 1e-12 * want and res.betti == float_res.betti
        with pytest.raises(DenseSizeError, match="budget"):
            res.spectra
        monkeypatch.setattr(torsion_engine, "DENSE_BUDGET_BYTES", biggest)
        assert tcc.boundary(big).shape == (tcc.dims[big], tcc.dims[big - 1])
        assert issubclass(DenseSizeError, TorsionLabError)

    @pytest.mark.parametrize("as_float", [False, True])
    def test_spectra_check_every_boundary_before_any_layout(self, as_float, monkeypatch):
        # every Gram matrix fits and the largest boundary does not: the spectral pass needs
        # that boundary too, so it raises before it lays out or allocates anything
        cx, bundle, spray = torus_at_2()
        tcc = assemble(cx, bundle.as_float() if as_float else bundle, spray)
        big = max(tcc.blocks, key=lambda d: tcc.dims[d] * tcc.dims[d - 1])
        gram = 8 * max(min(tcc.dims[d], tcc.dims[d - 1]) ** 2 for d in tcc.blocks)
        assert gram < 8 * tcc.dims[big] * tcc.dims[big - 1]
        monkeypatch.setattr(torsion_engine, "DENSE_BUDGET_BYTES", gram)
        res = ft_torsion_of_tcc(tcc)
        zeros = counting(monkeypatch, np, "zeros")
        laid = counting(monkeypatch, type(tcc), "_layout")
        with pytest.raises(DenseSizeError, match=f"degree-{big} boundary .* budget"):
            res.spectra
        assert zeros == laid == []
        out = res.to_jsonable()
        assert out["spectra"] is None and out["t_comb"] == res.t_comb

    def test_laplacian_over_budget_raises_where_the_boundaries_fit(self, monkeypatch):
        # rank-1 trivial torus: D_1 is 2 x 1 and D_2 is 1 x 2 (16 bytes each), Delta_1 is 2 x 2
        cx, _, spray = triple("torus")
        tcc = assemble(cx, FlatBundle(1, {"a": [[1]], "b": [[1]]}), spray)
        monkeypatch.setattr(torsion_engine, "DENSE_BUDGET_BYTES", 16)
        assert tcc.boundary(1).shape == (2, 1) and tcc.boundary(2).shape == (1, 2)
        laid = counting(monkeypatch, type(tcc), "_layout")
        with pytest.raises(DenseSizeError, match="degree-1 Laplacian is 2 x 2"):
            laplacians(tcc)
        # Delta_0 was built, from the empty D_0 and D_1; Delta_1 raised before any layout
        assert [args[1:] for args in laid] == [(0,), (1,)]
        # the spectra fit (their Grams are 1 x 1), but b_1 = 2 needs eigh of Delta_1
        with pytest.raises(DenseSizeError, match="degree-1 Laplacian"):
            harmonic_data(tcc)


def torus_triple():
    """Fresh torus, rank-2 exact bundle and canonical spray: H1 = Z^2, acyclic."""
    cx, _, spray = triple("torus")
    return cx, FlatBundle(2, {"a": [[2, 1], [1, 1]], "b": [[1, 0], [0, 1]]}), spray


def assert_same_complex(got, want):
    assert got.cell_order == want.cell_order
    for d in want.blocks:
        assert np.array_equal(got.boundary(d), want.boundary(d))
    assert sorted(got.blocks) == sorted(want.blocks)
    for d, rec in want.blocks.items():
        mine = got.blocks[d]
        assert mine.den == rec.den
        for a, b in ((mine.rows, rec.rows), (mine.cols, rec.cols), (mine.nums, rec.nums)):
            assert np.array_equal(a, b)


class TestAssemblyReuse:
    def test_repeat_call_returns_the_same_object_unchecked(self, monkeypatch):
        cx, bundle, spray = torus_triple()
        tcc = assemble(cx, bundle, spray)
        flatness = counting(monkeypatch, flat_bundle, "check_flatness")
        sprays = counting(monkeypatch, torsion_engine, "validate_spray")
        transports = counting(monkeypatch, FlatBundle, "transports")
        assert assemble(cx, bundle, spray) is tcc
        assert assemble(cx, bundle, canonical_spray(cx)) is tcc  # equal spray, another object
        assert flatness == sprays == transports == []

    def test_each_miss_equals_a_cold_assembly(self):
        def wound(cx, spray):
            return act(cx, h1_class_for(cx, (0, 1)), spray)

        cx, bundle, spray = torus_triple()
        other_cx = torus_triple()[0]
        misses = [
            ((cx, torus_triple()[1], spray), lambda cx, s: s),  # another bundle
            ((other_cx, bundle, canonical_spray(other_cx)), lambda cx, s: s),  # another complex
            ((cx, bundle, wound(cx, spray)), wound),  # another spray
        ]
        for args, spray_of in misses:
            tcc = assemble(cx, bundle, spray)
            got = assemble(*args)
            assert got is not tcc
            fresh_cx, fresh_bundle, fresh_spray = torus_triple()
            assert_same_complex(got, assemble(fresh_cx, fresh_bundle, spray_of(fresh_cx, fresh_spray)))

    def test_arrays_are_read_only(self):
        tcc = assemble(*torus_triple())
        for b in map(tcc.boundary, tcc.blocks):
            with pytest.raises(ValueError):
                b[...] = 0.0
        for rec in tcc.blocks.values():
            for a in (rec.rows, rec.cols, rec.nums):
                with pytest.raises(ValueError):
                    a[...] = 0

    def test_dropped_bundle_is_freed_without_the_cycle_collector(self):
        cx, bundle, spray = torus_triple()
        gc.disable()
        try:
            tcc = assemble(cx, bundle, spray)
            ref = weakref.ref(bundle)
            del bundle
            assert ref() is None
        finally:
            gc.enable()
        assert t_comb_squared_exact(tcc) == 1


def klein_triple():
    """Klein bottle, seeded rank-2 exact bundle (b_0 = b_1 = 1) and its canonical spray."""
    cx, _, spray = triple("klein")
    return cx, random_flat_bundle("klein", cx, np.random.default_rng(0), rank=2), spray


class TestHarmonicMemo:
    def test_ft_torsion_reuses_the_ft_pass(self, monkeypatch):
        cx, bundle, spray = klein_triple()
        want = ft_torsion(cx, bundle, spray)
        eighs = counting(monkeypatch, np.linalg, "eigh")
        eigvalshs = counting(monkeypatch, np.linalg, "eigvalsh")
        got = ft_torsion(cx, bundle, spray)
        assert abs(euler_action_on_torsion(cx, bundle, spray, h1_zero(cx)) - 1.0) <= 1e-12
        assert eighs == eigvalshs == []
        assert got.ft_metric == want.ft_metric and got.spectra == want.spectra

    def test_float_ft_keeps_its_pass_and_the_eig_route_runs_afresh(self, monkeypatch):
        # float ft keeps its tau-chain per rank_tol; t_comb(..., "eig") and harmonic_data
        # keep nothing, and the eig route runs one values-only pass per call
        cx, bundle, spray = klein_triple()
        tcc = assemble(cx, bundle.as_float(), spray)
        cold = t_comb(replace(tcc), "eig")
        eighs = counting(monkeypatch, np.linalg, "eigh")
        eigvalshs = counting(monkeypatch, np.linalg, "eigvalsh")
        runs = counting(monkeypatch, torsion_engine, "_tau_chain")
        res = ft_torsion_of_tcc(tcc)
        assert ft_torsion_of_tcc(tcc).t_comb == res.t_comb and len(runs) == 1
        assert eighs == eigvalshs == [] and abs(res.t_comb - cold) <= 1e-9 * cold
        harmonic_data(tcc)
        del eighs[:], eigvalshs[:]
        assert t_comb(tcc, "eig") == cold  # neither memo serves it: values only
        assert eighs == [] and len(eigvalshs) == tcc.top_dim
        ft_torsion_of_tcc(tcc, rank_tol=1e-9)  # another cutoff eliminates again
        assert len(runs) == 2 and eighs == []


class TestFlatnessThroughTheSlot:
    def test_second_spray_skips_flatness_and_new_complex_checks_it(self, monkeypatch):
        cx, bundle, spray = torus_triple()
        assemble(cx, bundle, spray)
        flatness = counting(monkeypatch, flat_bundle, "check_flatness")
        beta = act(cx, h1_class_for(cx, (0, 1)), spray)
        got = assemble(cx, bundle, beta)
        assert flatness == []
        fresh_cx, fresh_bundle, fresh_spray = torus_triple()
        fresh_beta = act(fresh_cx, h1_class_for(fresh_cx, (0, 1)), fresh_spray)
        assert_same_complex(got, assemble(fresh_cx, fresh_bundle, fresh_beta))
        other_cx = torus_triple()[0]
        del flatness[:]
        assemble(other_cx, bundle, canonical_spray(other_cx))
        assert len(flatness) == 1

    def test_non_flat_bundle_raises_on_every_call(self, monkeypatch):
        cx, _, spray = torus_triple()
        # a and b do not commute, so the torus face's holonomy is not the identity
        bundle = FlatBundle(2, {"a": [[1, 1], [0, 1]], "b": [[1, 0], [1, 1]]})
        flatness = counting(monkeypatch, flat_bundle, "check_flatness")
        sprays = [spray, spray, act(cx, h1_class_for(cx, (1, 0)), spray)]
        for s in sprays:
            with pytest.raises(NotFlatError):
                assemble(cx, bundle, s)
        assert len(flatness) == len(sprays) and bundle.last_assembly is None


def dense_transport_reference(tcc_alpha, bundle, alpha, beta, refs):
    """The earlier transport, kept as a reference: rows times one dense block-diagonal
    matrix of inverse float loop transports, taken on a float copy of the bundle."""
    k, bundle_f, out = bundle.rank, bundle.as_float(), {}
    for d, rows in refs.items():
        ids = tcc_alpha.cell_order[d]
        w = np.zeros((k * len(ids), k * len(ids)))
        for i, cid in enumerate(ids):
            loop = beta.leg(cid).compose(alpha.leg(cid).reverse())
            m = np.linalg.inv(loop_transport(bundle_f, loop))
            w[k * i : k * i + k, k * i : k * i + k] = m
        out[d] = np.asarray(rows, dtype=float) @ w
    return out


class TestReferenceTransport:
    COORDS = {"klein": [(1, 1), (0, 2), (1, -1)], "rp2": [(1,)], "sphere": [()]}

    @pytest.mark.parametrize("name", sorted(COORDS))
    def test_matches_the_dense_block_formula(self, name, monkeypatch):
        cx, _, alpha = triple(name)
        as_float = counting(monkeypatch, FlatBundle, "as_float")
        checked = set()
        for rank in (1, 2, 3):
            for seed in range(6):
                exact = random_flat_bundle(name, cx, np.random.default_rng(seed), rank=rank)
                for bundle in (exact, FlatBundle(rank, exact.edge_matrices, exact=False)):
                    tcc = assemble(cx, bundle, alpha)
                    refs = {d: b for d, b in harmonic_data(tcc)[2].items() if b.size}
                    if not refs:
                        continue
                    for coords in self.COORDS[name]:
                        beta = act(cx, h1_class_for(cx, coords), alpha)
                        del as_float[:]
                        got = transport_reference_between_sprays(tcc, cx, bundle, alpha, beta, refs)
                        assert as_float == []
                        want = dense_transport_reference(tcc, bundle, alpha, beta, refs)
                        assert sorted(got) == sorted(want)
                        for d, rows in want.items():
                            assert np.abs(got[d] - rows).max() <= 1e-14 * np.abs(rows).max()
                    checked.add(rank)
        assert checked == {1, 2, 3}

    def test_walks_only_degrees_with_reference_rows(self, monkeypatch):
        cx, bundle, spray = klein_triple()
        tcc = assemble(cx, bundle, spray)
        refs = {d: b for d, b in harmonic_data(tcc)[2].items() if b.size}
        beta = act(cx, h1_class_for(cx, (1, 1)), spray)
        calls = counting(monkeypatch, FlatBundle, "transports")
        transport_reference_between_sprays(tcc, cx, bundle, spray, beta, refs)
        walked = sum(len(tcc.cell_order[d]) for d in refs)
        assert sum(len(paths) for _, paths in calls) == walked
        assert walked < sum(map(len, tcc.cell_order.values()))

    def test_acyclic_triple_walks_nothing(self, monkeypatch):
        cx, bundle, spray = torus_triple()
        beta = act(cx, h1_class_for(cx, (1, 0)), spray)
        res_a = ft_torsion(cx, bundle, spray)
        assert res_a.acyclic
        walks = counting(monkeypatch, FlatBundle, "transports")
        transports = counting(monkeypatch, torsion_engine, "transport_reference_between_sprays")
        tcc = assemble(cx, bundle, spray)
        del walks[:]
        assert transport_reference_between_sprays(tcc, cx, bundle, spray, beta, {}) == {}
        assert walks == []
        euler_action_on_torsion(cx, bundle, spray, h1_class_for(cx, (1, 0)))
        assert len(transports) == 1 and transports[0][-1] == {}

    def test_dropped_bundle_dies_after_the_euler_action(self):
        cx, bundle, spray = klein_triple()
        gc.disable()
        try:
            ratio = euler_action_on_torsion(cx, bundle, spray, h1_class_for(cx, (1, 1)))
            tcc = bundle.last_assembly[2]
            harmonic_data(tcc)
            ref = weakref.ref(bundle)
            del bundle
            assert ref() is None
        finally:
            gc.enable()
        assert harmonic_data(tcc)[1][1] == 1 and math.isfinite(ratio)


def rel_gap(a, b):
    return abs(a - b) / abs(b)


def walk_with_references(check, cx, bundle, spray, rounds, label):
    """check(cx, bundle, spray, refs, label) at rounds 0 .. rounds - 1 of subdivision, with round
    0's harmonic bases transported as references; stops where subdivision is unsupported."""
    refs = {}
    for r in range(rounds):
        res = check(cx, bundle, spray, refs, f"{label} @{r}")
        if r == 0:
            refs = {d: b for d, b in res.harmonic_bases.items() if b.size}
        if r < rounds - 1:
            try:
                cx, bundle, spray, smap = barycentric_subdivide(cx, bundle, spray)
            except UnsupportedStructureError:  # the lens spaces
                break
            refs = smap.transport_reference(refs, bundle.rank)


class TestExactFtRoute:
    """ft_torsion of rational bundles (the tau-chain) against the spectral route."""

    def assert_routes_agree(self, cx, bundle, spray, refs, label):
        tcc, float_tcc = assemble(cx, bundle, spray), assemble(cx, bundle.as_float(), spray)
        res = ft_torsion_of_tcc(tcc, refs or None)
        spectra, betti, bases = harmonic_data(tcc)
        assert res.betti == betti, label
        assert rel_gap(res.t_comb, t_comb(tcc, "eig")) <= 1e-9, label
        for d, b in bases.items():
            got = res.harmonic_bases[d]
            assert got.shape == b.shape and np.abs(got - b).max(initial=0.0) <= 1e-9, label
        want = ft_torsion_of_tcc(float_tcc, refs or None).ft_metric.value
        assert rel_gap(res.ft_metric.value, want) <= 1e-9, label
        return res

    def test_seeded_bundles_on_every_exact_corpus_item(self):
        # tetra-solid@2 runs at rank 1 only, as in TestTauChain
        for name in corpus_list():
            item = corpus_get(name)
            if not item.bundle.exact:
                continue
            for rank in (1, 2, 3):
                bundle = random_flat_bundle(name, item.complex, np.random.default_rng(rank), rank=rank)
                rounds = 3 if rank == 1 or name != "tetra-solid" else 2
                walk_with_references(self.assert_routes_agree, item.complex, bundle, item.spray,
                                     rounds, f"{name} rank {rank}")

    def test_trivial_bundles_with_harmonic_classes(self):
        for name in ("torus", "klein", "sphere"):
            cx, _, spray = triple(name)
            bundle = FlatBundle(1, {c.id: [[1]] for c in cx.cells_of_dim(1)})
            walk_with_references(self.assert_routes_agree, cx, bundle, spray, 3, name)

    @pytest.mark.parametrize("name, rank", [("klein", 2), ("sphere", 1), ("torus", 2), ("rp2", 3)])
    def test_runs_no_eigensolver_and_spectra_on_read(self, name, rank, monkeypatch):
        cx, _, spray = triple(name)
        cx, bundle, spray, _ = barycentric_subdivide(
            cx, random_flat_bundle(name, cx, np.random.default_rng(5), rank=rank), spray
        )
        tcc = assemble(cx, bundle, spray)
        calls = [counting(monkeypatch, np.linalg, f) for f in ("eigh", "eigvalsh")]
        calls.append(counting(monkeypatch, torsion_engine, "_gram"))
        res = ft_torsion_of_tcc(tcc)
        assert calls == [[], [], []]
        assert res.spectra == harmonic_data(tcc)[0]
        assert calls[1] and calls[2]  # the read ran the values-only spectral pass

    def test_spectra_that_disagree_with_the_tau_chain_raise_on_read(self):
        # D_1 = diag(2, 1e-7): the Gram eigenvalue 1e-14 falls far below the cutoff 4e-10,
        # so the spectra count a zero that the tau-chain does not
        cx, _, spray = triple("circle-1cell")
        bundle = FlatBundle(2, {"e": [[3, 0], [0, 1 + Fraction(1, 10**7)]]})
        res = ft_torsion(cx, bundle, spray)
        assert res.acyclic and rel_gap(res.t_comb, 2e-7) <= 1e-12
        with pytest.raises(IllConditionedError, match="Betti numbers"):
            res.spectra
        with pytest.raises(ValueError, match="rank tolerance"):
            ft_torsion(cx, bundle, spray, rank_tol=float("nan"))

    def test_memo_serves_every_exact_route(self, monkeypatch):
        cx, bundle, spray = klein_triple()
        tcc = assemble(cx, bundle, spray)
        res = ft_torsion_of_tcc(tcc)
        runs = counting(monkeypatch, torsion_engine, "_tau_chain")
        assert t_comb_squared_exact(tcc) == torsion_engine._tau_chain(tcc)[0]
        assert len(runs) == 1  # only the direct call eliminates
        assert t_comb(tcc, "exact") == ft_torsion_of_tcc(tcc).t_comb == res.t_comb
        assert abs(euler_action_on_torsion(cx, bundle, spray, h1_zero(cx)) - 1.0) <= 1e-12
        assert len(runs) == 1
        assert ft_torsion_of_tcc(replace(tcc)).t_comb == res.t_comb and len(runs) == 2


def harmonic_value(bases, refs):
    """prod_d det(Gram_d)^{(-1)^d} of reference rows projected on orthonormal kernel rows B:
    the projections' Gram is (z B^T)(z B^T)^T."""
    value = 1.0
    for d, z in refs.items():
        c = z @ bases[d].T
        value *= np.linalg.det(c @ c.T) ** (1 if d % 2 == 0 else -1)
    return value


class TestFloatFtRoute:
    """ft_torsion of float bundles (the float tau-chain) against the eigensolver oracle: the
    benchmark's round-0 and random-triples oracles take the det route, the same algorithm."""

    def assert_routes_agree(self, cx, bundle, spray, refs, label):
        tcc = assemble(cx, bundle, spray)
        res = ft_torsion_of_tcc(tcc, refs or None)
        _, betti, bases = harmonic_data(tcc)
        t = t_comb(tcc, "eig")
        assert res.betti == betti, label
        assert rel_gap(res.t_comb, t) <= 1e-9, label
        for d, b in bases.items():
            got = res.harmonic_bases[d]
            assert got.shape == b.shape, label
            assert np.abs(got.T @ got - b.T @ b).max(initial=0.0) <= 1e-9, label  # projectors
            assert np.abs(got - b).max(initial=0.0) <= 1e-9, label  # the canonical rows
        assert rel_gap(res.ft_metric.value, t * t * harmonic_value(bases, refs)) <= 1e-9, label
        return res

    @pytest.mark.parametrize("name", corpus_list())
    def test_float_copies_of_seeded_bundles_and_lens_rotations(self, name):
        # float copies of seeded ranks 1-3 after 0-2 rounds, tetra-solid@2 at rank 1 only
        item = corpus_get(name)
        for bundle in corpus_bundles(name, 11, (1, 2, 3)):
            if bundle.exact:
                continue
            rounds = 3 if bundle.rank == 1 or name != "tetra-solid" else 2
            walk_with_references(self.assert_routes_agree, item.complex, bundle, item.spray,
                                 rounds, f"{name} rank {bundle.rank}")

    def test_trivial_float_bundles_with_harmonic_classes(self):
        # b_1 = 2 on the torus, whose tied column norms the canonical rule breaks alike
        for name in ("torus", "klein", "sphere"):
            cx, _, spray = triple(name)
            bundle = FlatBundle(1, {c.id: [[1.0]] for c in cx.cells_of_dim(1)})
            walk_with_references(self.assert_routes_agree, cx, bundle, spray, 3, name)

    def test_torus_r2_float_at_round_3(self):
        # the benchmark ladder's float torus: a = 1.5 R(0.7), b = R(1.1), 864 cells at round 3
        def rot(s, a):
            return [[s * math.cos(a), -s * math.sin(a)], [s * math.sin(a), s * math.cos(a)]]

        cx, _, spray = triple("torus")
        bundle = FlatBundle(2, {"a": rot(1.5, 0.7), "b": rot(1.0, 1.1)})
        assert not bundle.exact
        walk_with_references(self.assert_routes_agree, cx, bundle, spray, 4, "torus-r2-float")


class TestCanonicalBasis:
    def test_every_orthonormal_basis_of_a_span_gives_the_same_rows(self):
        # the span of e0 and e1 ties every projector column norm at 1; rotations of one basis
        # and eigh's kernel vectors all pick e0, then e1
        rng = np.random.default_rng(8)
        want = np.eye(3)[:2]
        _, v = np.linalg.eigh(np.diag([0.0, 0.0, 1.0]))
        qs = [v[:, :2].T]
        for _ in range(20):
            a = rng.uniform(0, 2 * np.pi)
            qs.append(np.array([[np.cos(a), np.sin(a)], [-np.sin(a), np.cos(a)]]) @ want)
        for q in qs:
            assert np.abs(torsion_engine._canonical_basis(q) - want).max() <= 1e-12

    def test_rows_span_the_same_space_orthonormally(self):
        rng = np.random.default_rng(9)
        q = np.linalg.qr(rng.normal(size=(9, 4)))[0].T
        got = torsion_engine._canonical_basis(q)
        assert np.allclose(got @ got.T, np.eye(4), rtol=0, atol=1e-12)
        assert np.allclose(got.T @ got, q.T @ q, rtol=0, atol=1e-12)
        rotated = np.linalg.qr(rng.normal(size=(4, 4)))[0] @ q
        assert np.abs(torsion_engine._canonical_basis(rotated) - got).max() <= 1e-12

    def test_spectral_and_exact_bases_tie_break_alike(self):
        # the trivial rank-1 torus has b_1 = 2 with tied column norms in both routes
        cx, _, spray = triple("torus")
        bundle = FlatBundle(1, {"a": [[1]], "b": [[1]]})
        cx, bundle, spray, _ = barycentric_subdivide(cx, bundle, spray)
        tcc = assemble(cx, bundle, spray)
        got, want = ft_torsion_of_tcc(tcc).harmonic_bases[1], harmonic_data(tcc)[2][1]
        assert got.shape == (2, tcc.dims[1]) and np.abs(got - want).max() <= 1e-12
        assert np.allclose(got @ got.T, np.eye(2)) and not got.flags.writeable


def fractions(flat):
    """3 x 3 Fraction rows from nine entries in row order."""
    return [[Fraction(x) for x in flat[i : i + 3]] for i in (0, 3, 6)]


class TestEulerCircleRegression:
    # the rank-3 circle-2vertex bundles and classes behind the random-triples euler ops 7:, 15:
    # and 59: of benchmark seeds 2, 4 and 7; the spectral route raised from its rank guard band
    # or disagreed on the Betti numbers between the two sprays
    CASES = [
        (["-7/9", "-8/3", "-1/9", "5/6", 7, 5, "8/9", 0, "2/3"],
         ["21/11", "27/22", "9/2", "-7/44", "45/44", -1, "-1/22", "-3/22", 0], -2),
        (["4/3", "17/3", "-11/9", "59/18", 0, 6, "2/3", "-11/6", "137/18"],
         ["69/22", "197/44", "171/88", "-129/88", "-133/176", "-203/352", "-9/88", "3/176",
          "-51/352"], 2),
        (["2/3", "-1/6", "5/3", "-16/3", "-14/3", "67/18", -3, "-5/2", "5/3"],
         ["97/186", "-47/93", "12/31", "-43/93", "34/93", "-10/31", "51/31", "26/31", "-12/31"], 1),
    ]

    @pytest.mark.parametrize("e1, e2, coord", CASES)
    def test_ratio_is_the_holonomy_power(self, e1, e2, coord):
        cx, _, spray = triple("circle-2vertex")
        bundle = FlatBundle(3, {"e1": fractions(e1), "e2": fractions(e2)})
        u = h1_class_for(cx, (coord,))
        want = det_of_class(cx, bundle, u) ** EULER_ACTION_EXPONENT
        assert rel_gap(euler_action_on_torsion(cx, bundle, spray, u), want) <= 1e-9
